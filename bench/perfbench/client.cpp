#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

extern char** environ;

namespace perfbench {

HttpClient::~HttpClient() { Close(); }

bool HttpClient::Connect(std::uint16_t port) {
  Close();
  port_ = port;
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::Send(const std::string& request) {
  if (fd_ < 0 && (port_ == 0 || !Connect(port_))) return false;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int HttpClient::Receive(Reply* reply) {
  if (fd_ < 0) return -1;
  char chunk[16384];
  for (;;) {
    const std::size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      // "HTTP/1.1 200 OK"
      const std::string_view head(buffer_.data(), header_end);
      if (head.size() < 12) {
        Close();
        return -1;
      }
      std::size_t body_length = 0;
      for (std::size_t pos = head.find("\r\n"); pos != std::string_view::npos;
           pos = head.find("\r\n", pos + 2)) {
        if (head.size() - pos > 17 &&
            strncasecmp(head.data() + pos + 2, "content-length:", 15) == 0) {
          body_length = std::strtoull(head.data() + pos + 17, nullptr, 10);
        }
      }
      if (buffer_.size() >= header_end + 4 + body_length) {
        reply->status = std::atoi(std::string(head.substr(9, 3)).c_str());
        reply->body.assign(buffer_, header_end + 4, body_length);
        buffer_.erase(0, header_end + 4 + body_length);
        return 1;
      }
    }
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return -1;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool HttpClient::Exchange(const std::string& request, Reply* reply) {
  if (!Send(request)) return false;
  for (;;) {
    const int got = Receive(reply);
    if (got != 0) return got > 0;
  }
}

std::string BuildRequest(const char* method, const std::string& target,
                         const std::string& body,
                         const std::string& extra_headers) {
  std::string out;
  out.reserve(128 + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  out += extra_headers;
  if (!body.empty() || std::strcmp(method, "POST") == 0) {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::size_t FindKey(std::string_view doc, std::string_view key,
                    std::size_t from) {
  std::string needle;
  needle.reserve(key.size() + 2);
  needle += '"';
  needle += key;
  needle += '"';
  for (std::size_t pos = doc.find(needle, from); pos != std::string_view::npos;
       pos = doc.find(needle, pos + 1)) {
    std::size_t at = pos + needle.size();
    while (at < doc.size() && doc[at] == ' ') ++at;
    if (at < doc.size() && doc[at] == ':') {
      ++at;
      while (at < doc.size() && doc[at] == ' ') ++at;
      return at;
    }
  }
  return std::string_view::npos;
}

std::string_view TokenAt(std::string_view doc, std::size_t pos) {
  if (pos >= doc.size()) return {};
  if (doc[pos] == '"') {
    const std::size_t end = doc.find('"', pos + 1);
    if (end == std::string_view::npos) return {};
    return doc.substr(pos, end - pos + 1);
  }
  std::size_t end = pos;
  while (end < doc.size() && doc[end] != ',' && doc[end] != '}' &&
         doc[end] != ']' && doc[end] != ' ') {
    ++end;
  }
  return doc.substr(pos, end - pos);
}

std::optional<double> NumberField(std::string_view doc, std::string_view key,
                                  std::size_t from) {
  const std::size_t pos = FindKey(doc, key, from);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string token(TokenAt(doc, pos));
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  return value;
}

std::optional<std::string> StringField(std::string_view doc,
                                       std::string_view key,
                                       std::size_t from) {
  const std::size_t pos = FindKey(doc, key, from);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string_view token = TokenAt(doc, pos);
  if (token.size() < 2 || token.front() != '"') return std::nullopt;
  return std::string(token.substr(1, token.size() - 2));
}

std::optional<bool> BoolField(std::string_view doc, std::string_view key,
                              std::size_t from) {
  const std::size_t pos = FindKey(doc, key, from);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string_view token = TokenAt(doc, pos);
  if (token == "true") return true;
  if (token == "false") return false;
  return std::nullopt;
}

double Counter(const std::string& metrics, const std::string& name) {
  const std::size_t counters = FindKey(metrics, "counters");
  return NumberField(metrics, name, counters == std::string::npos ? 0 : counters)
      .value_or(0.0);
}

double HistogramStat(const std::string& metrics, const std::string& name,
                     const std::string& stat) {
  const std::size_t histograms = FindKey(metrics, "histograms");
  if (histograms == std::string::npos) return 0.0;
  const std::size_t at = FindKey(metrics, name, histograms);
  if (at == std::string::npos) return 0.0;
  return NumberField(metrics, stat, at).value_or(0.0);
}

namespace {

bool cpus_split = false;
cpu_set_t generator_cpus;
cpu_set_t server_cpus;
cpu_set_t all_cpus;

}  // namespace

void SplitCpus() {
  if (sched_getaffinity(0, sizeof(all_cpus), &all_cpus) != 0 ||
      CPU_COUNT(&all_cpus) < 2) {
    return;
  }
  server_cpus = all_cpus;
  CPU_ZERO(&generator_cpus);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all_cpus)) {
      CPU_SET(cpu, &generator_cpus);
      CPU_CLR(cpu, &server_cpus);
      break;
    }
  }
  cpus_split = true;
  UseGeneratorCpu();
}

void UseAllCpus() {
  if (cpus_split) sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
}

void UseGeneratorCpu() {
  if (cpus_split) sched_setaffinity(0, sizeof(generator_cpus), &generator_cpus);
}

std::uint16_t FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 ||
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (fd >= 0) close(fd);
    throw std::runtime_error("cannot reserve a loopback port");
  }
  close(fd);
  return ntohs(addr.sin_port);
}

namespace {

std::vector<char*> Argv(const std::string& binary,
                        const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  return argv;
}

// Child stdout/stderr appended to `log`; stdin from `stdin_fd` (or
// /dev/null when negative).
pid_t Spawn(const std::string& binary, const std::vector<std::string>& args,
            const std::string& log, int stdin_fd) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdin_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, stdin_fd, 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> argv = Argv(binary, args);
  // The child inherits the caller's CPU mask at spawn, before it starts
  // any thread.
  cpu_set_t own;
  const bool pin = cpus_split && sched_getaffinity(0, sizeof(own), &own) == 0;
  if (pin) sched_setaffinity(0, sizeof(server_cpus), &server_cpus);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  if (pin) sched_setaffinity(0, sizeof(own), &own);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
  return pid;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  try {
    pid_ = Spawn(binary, args, log, fds[0]);
  } catch (...) {
    close(fds[0]);
    close(fds[1]);
    throw;
  }
  close(fds[0]);
  stdin_fd_ = fds[1];
}

ServerProcess::~ServerProcess() { Kill(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line, in clock ticks.
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int ServerProcess::Reap(double timeout_s) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (NowNs() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    usleep(2000);
  }
  pid_ = -1;
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
  return Reap(timeout_s);
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  Reap(10.0);
}

int RunProcess(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log) {
  const pid_t pid = Spawn(binary, args, log, -1);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
