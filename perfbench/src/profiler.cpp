#include "profiler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <memory>
#include <string_view>
#include <unordered_map>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

// ---------------------------------------------------------------------------
// Spans.

void SpanRecorder::record(const char* name, std::uint64_t id, Clock::time_point start,
                          Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  const Span s{name, id, ns(start), ns(end), thread_index()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

} // namespace

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::map<std::string, std::string>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"otherData\":{", f);
  bool first = true;
  for (const auto& [k, v] : meta) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", json_escape(k).c_str(),
                 json_escape(v).c_str());
    first = false;
  }
  std::fputs("},\"traceEvents\":[\n", f);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 i == 0 ? "" : ",\n", s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// SIGPROF sampler.

namespace {

constexpr int kDepth = 32;
constexpr std::size_t kCapacity = 200'000;

struct Sample {
  void* pc[kDepth];
  int depth; ///< 0 until the handler finished writing pc[] (atomic_ref)
};

// Handler state: plain atomics and a preallocated buffer, so the handler
// neither allocates nor locks.
Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<bool> g_active{false};
std::atomic<bool> g_inside{false};
std::atomic<std::uint64_t> g_outside{0};
std::atomic<std::uint64_t> g_dropped{0};

void on_sigprof(int) {
  const int saved_errno = errno;
  if (g_active.load(std::memory_order_relaxed)) {
    if (!g_inside.load(std::memory_order_relaxed)) {
      g_outside.fetch_add(1, std::memory_order_relaxed);
    } else {
      const std::size_t idx = g_next.fetch_add(1, std::memory_order_relaxed);
      if (idx < kCapacity) {
        Sample& s = g_samples[idx];
        std::atomic_ref<int>(s.depth).store(backtrace(s.pc, kDepth), std::memory_order_release);
      } else {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  errno = saved_errno;
}

/// Function symbols of the running executable, read from its own ELF
/// .symtab (which, unlike the dynamic table, also lists internal-linkage
/// functions), relocated by the executable's load bias.
class SymbolTable {
 public:
  SymbolTable() {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    if (image_.size() < sizeof(Elf64_Ehdr)) return;
    Elf64_Ehdr eh;
    std::memcpy(&eh, image_.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64) return;
    if (eh.e_shoff == 0 || eh.e_shentsize != sizeof(Elf64_Shdr) ||
        eh.e_shoff + static_cast<std::uint64_t>(eh.e_shnum) * sizeof(Elf64_Shdr) > image_.size()) {
      return;
    }
    std::vector<Elf64_Shdr> sh(eh.e_shnum);
    std::memcpy(sh.data(), image_.data() + eh.e_shoff, sh.size() * sizeof(Elf64_Shdr));
    const std::uintptr_t bias = load_bias();
    for (const std::uint32_t want : {SHT_SYMTAB, SHT_DYNSYM}) {
      for (const Elf64_Shdr& s : sh) {
        if (s.sh_type != want || s.sh_link >= sh.size()) continue;
        const Elf64_Shdr& str = sh[s.sh_link];
        if (s.sh_offset + s.sh_size > image_.size() || str.sh_offset + str.sh_size > image_.size()) {
          continue;
        }
        const std::size_t count = s.sh_size / sizeof(Elf64_Sym);
        for (std::size_t i = 0; i < count; ++i) {
          Elf64_Sym sym;
          std::memcpy(&sym, image_.data() + s.sh_offset + i * sizeof(Elf64_Sym), sizeof sym);
          if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 || sym.st_size == 0 ||
              sym.st_name >= str.sh_size) {
            continue;
          }
          syms_.push_back({sym.st_value + bias, sym.st_value + bias + sym.st_size,
                           str.sh_offset + sym.st_name});
        }
      }
      if (!syms_.empty()) break;
    }
    std::sort(syms_.begin(), syms_.end(),
              [](const Symbol& a, const Symbol& b) { return a.lo < b.lo; });
  }

  /// Mangled name of the function containing `pc`, or nullptr.
  const char* lookup(std::uintptr_t pc) const {
    auto it = std::upper_bound(syms_.begin(), syms_.end(), pc,
                               [](std::uintptr_t v, const Symbol& s) { return v < s.lo; });
    if (it == syms_.begin()) return nullptr;
    --it;
    if (pc >= it->hi) return nullptr;
    return image_.data() + it->name_off;
  }

 private:
  struct Symbol {
    std::uintptr_t lo;
    std::uintptr_t hi;
    std::size_t name_off;
  };

  static std::uintptr_t load_bias() {
    std::uintptr_t bias = 0;
    // The first object dl_iterate_phdr reports is the main program.
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    return bias;
  }

  std::string image_;
  std::vector<Symbol> syms_;
};

/// Layer of a function: the first tsn::<module>:: qualifier in its
/// demangled name, skipping tsn::util (the first one is the function's
/// own namespace, or for a closure trampoline the namespace of the
/// closure it runs). Empty for non-tsn code.
std::string module_of(const char* mangled) {
  static const char* const kModules[] = {"sim",     "net",         "gptp",   "core",  "hv",
                                         "time",    "measure",     "faults", "attack", "check",
                                         "sweep",   "obs",         "experiments"};
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  const std::string name = status == 0 && demangled ? demangled : mangled;
  std::free(demangled);
  std::string_view s = name;
  for (std::size_t pos = s.find("tsn::"); pos != std::string_view::npos;
       pos = s.find("tsn::", pos + 5)) {
    if (pos > 0 && (std::isalnum(static_cast<unsigned char>(s[pos - 1])) || s[pos - 1] == '_')) {
      continue;
    }
    const std::string_view rest = s.substr(pos + 5);
    const std::size_t end = rest.find("::");
    if (end == std::string_view::npos) continue;
    const std::string_view mod = rest.substr(0, end);
    for (const char* m : kModules) {
      if (mod == m) return std::string(mod);
    }
  }
  return {};
}

} // namespace

Sampler& Sampler::instance() {
  static Sampler s;
  return s;
}

void Sampler::start(int hz) {
  if (g_samples == nullptr) {
    // calloc of this size maps fresh zero pages: only the pages samples
    // land in become resident. Lives until process exit.
    g_samples = static_cast<Sample*>(std::calloc(kCapacity, sizeof(Sample)));
    if (g_samples == nullptr) return;
  }
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  std::memset(static_cast<void*>(g_samples), 0, std::min(g_next.load(), kCapacity) * sizeof(Sample));
  g_next.store(0);
  g_outside.store(0);
  g_dropped.store(0);
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  g_active.store(true);
  const long usec = 1'000'000L / std::max(1, hz);
  itimerval tv{};
  tv.it_interval.tv_sec = usec / 1'000'000;
  tv.it_interval.tv_usec = usec % 1'000'000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void Sampler::stop() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
  g_active.store(false);
}

void Sampler::set_region(bool inside) { g_inside.store(inside, std::memory_order_relaxed); }

Sampler::Profile Sampler::attribute() const {
  Profile p;
  p.outside = g_outside.load();
  p.dropped = g_dropped.load();
  if (g_samples == nullptr) return p;
  static const SymbolTable symbols;
  std::unordered_map<std::uintptr_t, std::string> by_pc;
  const std::size_t n = std::min(g_next.load(), kCapacity);
  for (std::size_t i = 0; i < n; ++i) {
    const int depth = std::atomic_ref<int>(g_samples[i].depth).load(std::memory_order_acquire);
    if (depth <= 0) continue;
    ++p.inside;
    std::string module;
    for (int f = 0; f < depth && module.empty(); ++f) {
      // Frames past the interrupted one hold return addresses; step back
      // into the call instruction so the lookup lands in the caller.
      const auto pc = reinterpret_cast<std::uintptr_t>(g_samples[i].pc[f]) - (f > 0 ? 1 : 0);
      auto it = by_pc.find(pc);
      if (it == by_pc.end()) {
        const char* sym = symbols.lookup(pc);
        it = by_pc.emplace(pc, sym ? module_of(sym) : std::string()).first;
      }
      module = it->second;
    }
    ++p.by_module[module.empty() ? "other" : module];
  }
  return p;
}

} // namespace perfbench
