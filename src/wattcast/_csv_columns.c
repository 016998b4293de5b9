/* The timestamp and value columns of a clean delimiter-separated energy
   file, parsed to float64 in one pass over its bytes (see ingest.py).

   csv_columns reads data[begin, size) as lines ended by LF or CRLF, and
   returns the number of data records (the lines after the first skip), with
   record k's cells in stamps[k] and values[k]. It returns -1, having
   written whatever it had parsed, wherever it is not sure that the file
   holds only what it can read, and the caller then takes its general path:

   - a byte that is NUL, a quote or >= 0x80, or a lone CR;
   - an empty line, a line longer than field_limit (its terminator not
     counted), or a line whose cell count differs from the first line's;
   - a stamp cell outside its grammar: with epoch == 0, 9 or 10 digits, the
     first not 0 ([1-9][0-9]{8,9}); else a number (below);
   - a stamp that is not in [year_1, year_10000);
   - a value cell that is not a number, or that overflows to an infinity;
   - no data record, or more than capacity.

   A number is [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)? with D a decimal digit:
   no space, underscore, infinity or NaN token, or hexadecimal form. Its
   value is the correctly rounded binary64 that Python's float() gives:
   exact when at most 19 significant digits form a mantissa below 2^53 and
   the decimal exponent is within +-22 (one correctly rounded multiply or
   divide by an exact power of ten, Clinger's fast path), else from
   strtod_l in the C locale, so the process locale never matters. */

#define _GNU_SOURCE
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __APPLE__
#include <xlocale.h>
#endif

/* the longest number cell parsed; a longer one is declined */
#define CELL_MAX 511

static const double POW10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                               1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                               1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_digit(unsigned char c)
{
    return c >= '0' && c <= '9';
}

/* the number in [s, e) into *out; 0, or -1 outside the grammar. *locale
   is created on the first cell that needs strtod_l. */
static int parse_number(const unsigned char *s, const unsigned char *e, double *out,
                        locale_t *locale)
{
    const unsigned char *p = s;
    const int negative = p < e && *p == '-';
    if (p < e && (*p == '+' || *p == '-'))
        p++;
    uint64_t mantissa = 0;
    int digits = 0, exact = 1, any = 0;
    long exponent = 0;
    for (; p < e && is_digit(*p); p++, any = 1) {
        if (mantissa == 0 && *p == '0')
            continue;
        if (digits == 19) {
            exact = 0;
            continue;
        }
        mantissa = mantissa * 10 + (*p - '0');
        digits++;
    }
    if (p < e && *p == '.')
        for (p++; p < e && is_digit(*p); p++, any = 1) {
            if (mantissa == 0 && *p == '0') {
                exponent--;
                continue;
            }
            if (digits == 19) {
                exact = 0;
                continue;
            }
            mantissa = mantissa * 10 + (*p - '0');
            digits++;
            exponent--;
        }
    if (!any)
        return -1;
    if (p < e && (*p == 'e' || *p == 'E')) {
        p++;
        const int minus = p < e && *p == '-';
        if (p < e && (*p == '+' || *p == '-'))
            p++;
        if (p == e || !is_digit(*p))
            return -1;
        long power = 0;
        for (; p < e && is_digit(*p); p++)
            if (power < 100000)
                power = power * 10 + (*p - '0');
        exponent += minus ? -power : power;
    }
    if (p != e)
        return -1;

    if (exact && mantissa <= (UINT64_C(1) << 53) && exponent >= -22 && exponent <= 22) {
        double value = (double)mantissa;
        value = exponent < 0 ? value / POW10[-exponent] : value * POW10[exponent];
        *out = negative ? -value : value;
        return 0;
    }
    if (e - s > CELL_MAX)
        return -1;
    if (*locale == (locale_t)0) {
        *locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
        if (*locale == (locale_t)0)
            return -1;
    }
    char text[CELL_MAX + 1], *stop;
    memcpy(text, s, e - s);
    text[e - s] = '\0';
    *out = strtod_l(text, &stop, *locale);
    return stop == text + (e - s) ? 0 : -1;
}

/* a 9- or 10-digit epoch second without a leading zero, into *out */
static int parse_epoch_digits(const unsigned char *s, const unsigned char *e, double *out)
{
    const long n = e - s;
    if (n < 9 || n > 10 || *s == '0')
        return -1;
    int64_t seconds = 0;
    for (; s < e; s++) {
        if (!is_digit(*s))
            return -1;
        seconds = seconds * 10 + (*s - '0');
    }
    *out = (double)seconds;
    return 0;
}

long csv_columns(const char *data, long begin, long size, int delimiter, long skip,
                 long ts_col, long val_col, int epoch, long field_limit, double year_1,
                 double year_10000, double *stamps, double *values, long capacity)
{
    const unsigned char *p = (const unsigned char *)data + begin;
    const unsigned char *const end = (const unsigned char *)data + size;
    const unsigned char delim = (unsigned char)delimiter;
    locale_t locale = (locale_t)0;
    long width = -1, line = 0, rows = 0, result = -1;

    while (p < end) {
        const unsigned char *const start = p, *cell = p;
        const unsigned char *ts = NULL, *ts_end = NULL, *val = NULL, *val_end = NULL;
        long col = 0;
        for (; p < end && *p != '\n'; p++) {
            const unsigned char c = *p;
            if (c == '\0' || c == '"' || c >= 0x80)
                goto done;
            if (c == delim) {
                if (col == ts_col) {
                    ts = cell;
                    ts_end = p;
                }
                if (col == val_col) {
                    val = cell;
                    val_end = p;
                }
                col++;
                cell = p + 1;
            } else if (c == '\r' && (p + 1 == end || p[1] != '\n')) {
                goto done;
            }
        }
        const unsigned char *line_end = p;
        if (line_end > start && line_end[-1] == '\r')
            line_end--;
        if (col == ts_col) {
            ts = cell;
            ts_end = line_end;
        }
        if (col == val_col) {
            val = cell;
            val_end = line_end;
        }
        if (p < end)
            p++; /* past the LF */
        if (line_end == start || line_end - start > field_limit)
            goto done;
        if (width < 0)
            width = col + 1;
        else if (col + 1 != width)
            goto done;
        if (line++ < skip)
            continue;

        double stamp, value;
        if (ts == NULL || val == NULL || rows == capacity)
            goto done;
        if ((epoch ? parse_number(ts, ts_end, &stamp, &locale)
                   : parse_epoch_digits(ts, ts_end, &stamp)) != 0
            || !(stamp >= year_1 && stamp < year_10000))
            goto done;
        if (parse_number(val, val_end, &value, &locale) != 0 || isinf(value))
            goto done;
        stamps[rows] = stamp;
        values[rows] = value;
        rows++;
    }
    result = rows > 0 ? rows : -1;

done:
    if (locale != (locale_t)0)
        freelocale(locale);
    return result;
}
