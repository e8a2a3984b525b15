// Civil time <-> epoch-milliseconds conversion.
//
// LogLens never consults the wall clock inside algorithms: all anomaly logic
// runs on "log time" — timestamps embedded in the logs themselves (Section
// V-B of the paper). This header provides the value type those timestamps
// unify to, plus formatting in the paper's canonical layout
// "yyyy/MM/dd HH:mm:ss.SSS". All conversions are timezone-free (UTC).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace loglens {

struct CivilTime {
  int year = 1970;
  int month = 1;   // 1..12
  int day = 1;     // 1..31
  int hour = 0;    // 0..23
  int minute = 0;  // 0..59
  int second = 0;  // 0..59
  int millis = 0;  // 0..999

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
int64_t days_from_civil(int y, int m, int d);

// Inverse of days_from_civil.
void civil_from_days(int64_t z, int& y, int& m, int& d);

// Milliseconds since the epoch for a civil time.
int64_t to_epoch_millis(const CivilTime& t);

CivilTime from_epoch_millis(int64_t ms);

// Canonical LogLens timestamp format: "yyyy/MM/dd HH:mm:ss.SSS".
std::string format_canonical(int64_t epoch_millis);
std::string format_canonical(const CivilTime& t);
// Appends to `out`, reusing its storage (hot-path variant); always
// kCanonicalLength bytes.
inline constexpr size_t kCanonicalLength = 23;
void append_canonical(int64_t epoch_millis, std::string& out);

// True if the fields form a real calendar date/time (leap years honoured).
bool is_valid_civil(const CivilTime& t);

int days_in_month(int year, int month);
bool is_leap_year(int year);

}  // namespace loglens
