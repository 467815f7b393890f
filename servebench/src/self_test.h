#ifndef SERVEBENCH_SELF_TEST_H_
#define SERVEBENCH_SELF_TEST_H_

#include <string>

namespace servebench {

/// Checks the benchmark's own machinery: the nearest-rank percentile, the
/// failed_frac accounting, the transfer rollback path against a live
/// server, and oracle mismatch detection. Prints one line per check;
/// returns the process exit status (0 = all passed).
int RunSelfTest(const std::string& workdir);

}  // namespace servebench

#endif  // SERVEBENCH_SELF_TEST_H_
