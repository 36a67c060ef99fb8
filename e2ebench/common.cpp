#include "common.hpp"

#include <cstdio>

namespace e2e
{

void
fail(RepOutcome &out, const std::string &why)
{
    std::fprintf(stderr, "gate: %s\n", why.c_str());
    out.ok = false;
    if (out.detail[0] == '\0')
        std::snprintf(out.detail, sizeof(out.detail), "%s", why.c_str());
}

bool
checkPin(RepOutcome &out, const Options &opt, const char *what,
         std::uint64_t got, std::uint64_t pinned)
{
    const std::uint64_t want = pinned + opt.pinSkew;
    if (got == want)
        return true;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: got %llu, pinned %llu", what,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    fail(out, buf);
    return false;
}

std::uint64_t
digestWords(const std::uint64_t *w, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w[i] >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // namespace e2e
