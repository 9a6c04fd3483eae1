#include "util/codec.h"

#include <cxxabi.h>

#include <cstdio>
#include <cstdlib>

namespace pvn::codec {

void count_overflow(const char* message, const char* field, std::size_t n,
                    std::size_t max) {
  int status = 0;
  char* name = abi::__cxa_demangle(message, nullptr, nullptr, &status);
  std::fprintf(stderr,
               "wire encode: %s.%s holds %zu entries, more than its count "
               "field can carry (%zu)\n",
               status == 0 ? name : message, field, n, max);
  std::free(name);
  std::abort();
}

}  // namespace pvn::codec
