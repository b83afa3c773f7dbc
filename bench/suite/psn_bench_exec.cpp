// psn_bench_exec — runs one program and reports what wait4 measured:
//
//   psn_bench_exec OUT IN PROGRAM [ARGS...]
//
// PROGRAM's stdout goes to the file OUT, its stdin comes from the file IN
// ("-" keeps the launcher's). Prints {"wall_s","cpu_s","peak_rss_kb","exit"}
// as one JSON line.
//
// Why a launcher: Linux floors a child's ru_maxrss at its parent's peak RSS
// (the parent's address space is what the child's exec replaces), so a
// program spawned straight from the suite's Python process would report
// the interpreter's footprint whenever its own is smaller. This launcher is
// a few hundred KiB, so the floor it imposes is negligible.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

double seconds(const timespec& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

bool redirect(const char* path, int flags, int target) {
  const int fd = open(path, flags, 0644);
  if (fd < 0) return false;
  const bool ok = dup2(fd, target) == target;
  close(fd);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: psn_bench_exec OUT IN PROGRAM [ARGS...]\n");
    return 2;
  }
  timespec start{}, end{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("psn_bench_exec: fork");
    return 2;
  }
  if (pid == 0) {
    if (!redirect(argv[1], O_WRONLY | O_CREAT | O_TRUNC, STDOUT_FILENO) ||
        (std::strcmp(argv[2], "-") != 0 &&
         !redirect(argv[2], O_RDONLY, STDIN_FILENO))) {
      std::perror("psn_bench_exec: redirect");
      _exit(127);
    }
    execv(argv[3], argv + 3);
    std::perror("psn_bench_exec: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("psn_bench_exec: wait4");
    return 2;
  }
  clock_gettime(CLOCK_MONOTONIC, &end);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::printf(
      "{\"wall_s\":%.9f,\"cpu_s\":%.6f,\"peak_rss_kb\":%ld,\"exit\":%d}\n",
      seconds(end) - seconds(start),
      seconds(usage.ru_utime) + seconds(usage.ru_stime), usage.ru_maxrss,
      code);
  return 0;
}
