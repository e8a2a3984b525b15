#include "common/time.h"

#include <cstdio>

namespace loglens {

int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);              // [0, 399]
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;   // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;             // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void civil_from_days(int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  y = static_cast<int>(yy + (m <= 2));
}

int64_t to_epoch_millis(const CivilTime& t) {
  const int64_t days = days_from_civil(t.year, t.month, t.day);
  return ((days * 24 + t.hour) * 60 + t.minute) * 60000 + t.second * 1000 +
         t.millis;
}

CivilTime from_epoch_millis(int64_t ms) {
  int64_t days = ms / 86400000;
  int64_t rem = ms % 86400000;
  if (rem < 0) {
    rem += 86400000;
    --days;
  }
  CivilTime t;
  civil_from_days(days, t.year, t.month, t.day);
  t.hour = static_cast<int>(rem / 3600000);
  rem %= 3600000;
  t.minute = static_cast<int>(rem / 60000);
  rem %= 60000;
  t.second = static_cast<int>(rem / 1000);
  t.millis = static_cast<int>(rem % 1000);
  return t;
}

std::string format_canonical(const CivilTime& t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d/%02d/%02d %02d:%02d:%02d.%03d", t.year,
                t.month, t.day, t.hour, t.minute, t.second, t.millis);
  return buf;
}

std::string format_canonical(int64_t epoch_millis) {
  return format_canonical(from_epoch_millis(epoch_millis));
}

void append_canonical(int64_t epoch_millis, std::string& out) {
  const CivilTime t = from_epoch_millis(epoch_millis);
  // Hand-rolled "%04d/%02d/%02d %02d:%02d:%02d.%03d": this runs once per
  // parsed log line, and snprintf re-parses the format string every call.
  char buf[kCanonicalLength];
  auto put2 = [](char* p, int v) {
    p[0] = static_cast<char>('0' + v / 10);
    p[1] = static_cast<char>('0' + v % 10);
  };
  const int y = t.year;
  buf[0] = static_cast<char>('0' + (y / 1000) % 10);
  buf[1] = static_cast<char>('0' + (y / 100) % 10);
  buf[2] = static_cast<char>('0' + (y / 10) % 10);
  buf[3] = static_cast<char>('0' + y % 10);
  buf[4] = '/';
  put2(buf + 5, t.month);
  buf[7] = '/';
  put2(buf + 8, t.day);
  buf[10] = ' ';
  put2(buf + 11, t.hour);
  buf[13] = ':';
  put2(buf + 14, t.minute);
  buf[16] = ':';
  put2(buf + 17, t.second);
  buf[19] = '.';
  put2(buf + 20, t.millis / 10);
  buf[22] = static_cast<char>('0' + t.millis % 10);
  out.append(buf, sizeof(buf));
}

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[month - 1];
}

bool is_valid_civil(const CivilTime& t) {
  return t.month >= 1 && t.month <= 12 && t.day >= 1 &&
         t.day <= days_in_month(t.year, t.month) && t.hour >= 0 &&
         t.hour <= 23 && t.minute >= 0 && t.minute <= 59 && t.second >= 0 &&
         t.second <= 59 && t.millis >= 0 && t.millis <= 999;
}

}  // namespace loglens
