/**
 * @file
 * Number parsing for the example programs' command lines. A value must
 * be one whole number in range (the full-string env::parseLong /
 * env::parseDouble), so `--frames 8x` is refused instead of read as 8.
 * On a bad value the parser prints the reason and the program's usage
 * line to stderr, then exits 2.
 */

#ifndef NEO_EXAMPLES_EXAMPLE_ARGS_H
#define NEO_EXAMPLES_EXAMPLE_ARGS_H

#include <cstdio>
#include <cstdlib>

#include "common/env.h"

namespace neo::examples
{

/** One program's number parser: its name and its usage text (which
    ends in a newline). */
struct ArgParser
{
    const char *program;
    const char *usage;

    /** @p text as an integer in [@p lo, @p hi], or usage + exit 2. */
    long integer(const char *flag, const char *text, long lo,
                 long hi) const
    {
        long v = 0;
        if (!env::parseLong(text, &v) || v < lo || v > hi) {
            std::fprintf(stderr,
                         "%s: %s '%s' is not an integer in [%ld, %ld]\n%s",
                         program, flag, text, lo, hi, usage);
            std::exit(2);
        }
        return v;
    }

    /** @p text as a number in [@p lo, @p hi], or usage + exit 2. */
    double real(const char *flag, const char *text, double lo,
                double hi) const
    {
        double v = 0.0;
        if (!env::parseDouble(text, &v) || !(v >= lo && v <= hi)) {
            std::fprintf(stderr,
                         "%s: %s '%s' is not a number in [%g, %g]\n%s",
                         program, flag, text, lo, hi, usage);
            std::exit(2);
        }
        return v;
    }
};

} // namespace neo::examples

#endif // NEO_EXAMPLES_EXAMPLE_ARGS_H
