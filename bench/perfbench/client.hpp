// Loopback HTTP/1.1 client, flat-JSON field scanning and the server
// process handle: everything the untraced run needs to drive
// `cfsf_cli serve` through its CLI and HTTP API alone.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One keep-alive connection to 127.0.0.1:port.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// (Re)connects; false when nothing listens on the port.  Exchange()
  /// reconnects to the same port once after a connection error.
  bool Connect(std::uint16_t port);
  void Close();

  struct Reply {
    int status = 0;
    std::string body;
  };
  /// Writes one complete request.  False on a connection error.
  bool Send(const std::string& request);
  /// Non-blocking: 1 when a whole reply is buffered (and moved into
  /// `reply`), 0 while it is still arriving, -1 on a connection error.
  int Receive(Reply* reply);
  /// Send, then busy-poll Receive.  The generator never blocks in the
  /// kernel, so its core never idles and no wake-up delays its timing.
  bool Exchange(const std::string& request, Reply* reply);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buffer_;
};

/// A complete HTTP/1.1 request message.
std::string BuildRequest(const char* method, const std::string& target,
                         const std::string& body,
                         const std::string& extra_headers = "");

/// Offset just past `"key":` (and any whitespace) at or after `from`, or
/// npos.  The documents scanned here are the server's flat JSON, where a
/// quoted key followed by a colon is unambiguous.
std::size_t FindKey(std::string_view doc, std::string_view key,
                    std::size_t from = 0);
/// The raw token (number, literal or quoted string with its quotes) at
/// `pos`.
std::string_view TokenAt(std::string_view doc, std::size_t pos);
std::optional<double> NumberField(std::string_view doc, std::string_view key,
                                  std::size_t from = 0);
std::optional<std::string> StringField(std::string_view doc,
                                       std::string_view key,
                                       std::size_t from = 0);
std::optional<bool> BoolField(std::string_view doc, std::string_view key,
                              std::size_t from = 0);

/// Counter value from a GET /metrics document (0 when absent: counters
/// appear on first use).
double Counter(const std::string& metrics, const std::string& name);
/// A histogram statistic ("p50", "count", ...) from a /metrics document.
double HistogramStat(const std::string& metrics, const std::string& name,
                     const std::string& stat);

/// CPU placement.  SplitCpus() pins the calling thread (the generator)
/// to the last CPU of the process's affinity mask and reserves the others
/// for every process spawned afterwards, so the busy-polling generator
/// and the server never time-share a core.  No-op with one CPU.
void SplitCpus();
/// The traced passes run the layers in-process: give them every CPU.
void UseAllCpus();
void UseGeneratorCpu();

/// Binds an ephemeral loopback port, releases it and returns its number.
std::uint16_t FreePort();

/// A `cfsf_cli serve` child.  Its stdin is a pipe: Stop() closes it,
/// which is the CLI's graceful shutdown; Kill() is SIGKILL.
class ServerProcess {
 public:
  /// Spawns `binary args...` with stdout and stderr appended to `log`.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args, const std::string& log);
  ~ServerProcess();  // Kill() if still running
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool running() const { return pid_ > 0; }
  /// Peak resident set (VmHWM) in MB; 0 when unreadable.
  double PeakRssMb() const;
  /// User + system CPU time the process has used so far, in seconds.
  double CpuSeconds() const;
  /// Graceful stop; SIGKILL after `timeout_s`.  Returns the exit status.
  int Stop(double timeout_s = 30.0);
  void Kill();

 private:
  int Reap(double timeout_s);
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
};

/// Runs `binary args...` to completion; returns its exit code.
int RunProcess(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log);

}  // namespace perfbench
