/**
 * @file
 * Error-handling primitives shared by every sdnav module.
 *
 * Following the gem5 fatal()/panic() distinction: user-caused errors
 * (bad parameters, malformed catalogs) throw ModelError; internal
 * invariant violations use assertions.
 */

#ifndef SDNAV_COMMON_ERROR_HH
#define SDNAV_COMMON_ERROR_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace sdnav
{

/**
 * Exception thrown for user-caused modeling errors: out-of-range
 * availabilities, inconsistent catalogs, malformed topologies, etc.
 */
class ModelError : public std::invalid_argument
{
  public:
    explicit ModelError(const std::string &what)
        : std::invalid_argument(what)
    {}
};

/**
 * Throw ModelError with the given message unless the condition holds.
 *
 * @param condition Predicate that must be true.
 * @param message Human-readable description of the violated requirement.
 */
inline void
require(bool condition, const std::string &message)
{
    if (!condition)
        throw ModelError(message);
}

/** As above for a literal message: no string is built unless it throws. */
inline void
require(bool condition, const char *message)
{
    if (!condition)
        throw ModelError(message);
}

/**
 * Validate that a value is a probability (within [0, 1]).
 *
 * @param value The candidate probability.
 * @param name Parameter name used in the error message.
 * @return The validated value, for use in initializer expressions.
 */
double requireProbability(double value, std::string_view name);

/**
 * Validate that a value is strictly positive.
 *
 * @param value The candidate value.
 * @param name Parameter name used in the error message.
 * @return The validated value.
 */
double requirePositive(double value, std::string_view name);

/**
 * Validate that a value is non-negative.
 *
 * @param value The candidate value.
 * @param name Parameter name used in the error message.
 * @return The validated value.
 */
double requireNonNegative(double value, std::string_view name);

} // namespace sdnav

#endif // SDNAV_COMMON_ERROR_HH
