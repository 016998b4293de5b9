/* ingest.py's CSV kernel: the reader's column pass (csv_columns) and the
   table writer (csv_write, below).

   The timestamp and value columns of a clean delimiter-separated energy
   file, parsed to float64 in one pass over its bytes.

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


/* The writer: csv_write formats rows [0, rows) of a table as CSV text at
   out, each row "stamp,value,...\n", and returns the number of bytes
   written; out must hold rows * (21 + 25 * width) bytes (a stamp is 20
   bytes, a value at most 24). It returns -1, having written part of the
   chunk, where a stamp is NaN or its second is outside [year_1,
   year_10000): the caller then formats the chunk in Python, which raises.

   A stamp is the second datetime.fromtimestamp shows, by ingest.py's
   _format_timestamps steps: modf, rint of the fraction x 1e6 (half to
   even), then a carry at 1e6 microseconds or a borrow below 0, written as
   YYYY-MM-DDTHH:MM:SSZ in the proleptic Gregorian calendar. A value is
   repr's text: the shortest digits that read back as the same double, and
   of those the closest (Ryu: Adams, "Ryu: fast float-to-string
   conversion", PLDI 2018), in fixed notation when the decimal exponent is
   in [-4, 16) and as d.ddde+XX otherwise, with ".0" after an integral
   value; "-0.0", "inf", "-inf", and "NaN" for every NaN. */

#define POW5_BITS 125

/* Ryu's tables, low word first: entry q of POW5_INV_SPLIT is
   floor(2^(bitlength(5^q) - 1 + 125) / 5^q) + 1, and entry i of POW5_SPLIT
   is 5^i shifted to exactly 125 bits (both checked by the test suite) */
static const uint64_t POW5_INV_SPLIT[291][2] = {
    {0x0000000000000001, 0x2000000000000000}, {0x999999999999999a, 0x1999999999999999},
    {0x47ae147ae147ae15, 0x147ae147ae147ae1}, {0x6c8b4395810624de, 0x10624dd2f1a9fbe7},
    {0x7a786c226809d496, 0x1a36e2eb1c432ca5}, {0x61f9f01b866e43ab, 0x14f8b588e368f084},
    {0xb4c7f34938583622, 0x10c6f7a0b5ed8d36}, {0x87a6520ec08d236a, 0x1ad7f29abcaf4857},
    {0x9fb841a566d74f88, 0x15798ee2308c39df}, {0xe62d01511f12a607, 0x112e0be826d694b2},
    {0xd6ae6881cb5109a4, 0x1b7cdfd9d7bdbab7}, {0xdef1ed34a2a73aea, 0x15fd7fe17964955f},
    {0x7f27f0f6e885c8bb, 0x119799812dea1119}, {0x650cb4be40d60df8, 0x1c25c268497681c2},
    {0xea70909833de7193, 0x16849b86a12b9b01}, {0x21f3a6e0297ec143, 0x1203af9ee756159b},
    {0x6985d7cd0f313537, 0x1cd2b297d889bc2b}, {0x2137dfd73f5a90f9, 0x170ef54646d49689},
    {0xe75fe645cc4873fa, 0x12725dd1d243aba0}, {0xa5663d3c7a0d865d, 0x1d83c94fb6d2ac34},
    {0x511e976394d79eb1, 0x179ca10c9242235d}, {0xda7edf82dd794bc1, 0x12e3b40a0e9b4f7d},
    {0x2a6498d1625bac68, 0x1e392010175ee596}, {0xeeb6e0a781e2f053, 0x182db34012b25144},
    {0x58924d52ce4f26a9, 0x1357c299a88ea76a}, {0x27507bb7b07ea441, 0x1ef2d0f5da7dd8aa},
    {0x52a6c95fc0655034, 0x18c240c4aecb13bb}, {0x0eebd44c99eaa690, 0x13ce9a36f23c0fc9},
    {0xb17953adc3110a80, 0x1fb0f6be50601941}, {0xc12ddc8b02740867, 0x195a5efea6b34767},
    {0x3424b06f3529a052, 0x14484bfeebc29f86}, {0x901d59f290ee19db, 0x1039d66589687f9e},
    {0x4cfbc31db4b0295f, 0x19f623d5a8a73297}, {0x3d9635b15d59bab2, 0x14c4e977ba1f5bac},
    {0x97ab5e277de16228, 0x109d8792fb4c4956}, {0xf2abc9d8c9689d0d, 0x1a95a5b7f87a0ef0},
    {0x5bbca17a3aba173e, 0x154484932d2e725a}, {0xafca1ac82efb45cb, 0x11039d428a8b8eae},
    {0xb2dcf7a6b1920945, 0x1b38fb9daa78e44a}, {0xf57d92ebc141a104, 0x15c72fb1552d836e},
    {0xc46475896767b403, 0x116c262777579c58}, {0x6d6d88dbd8a5ecd2, 0x1be03d0bf225c6f4},
    {0x8abe071646eb23db, 0x164cfda3281e38c3}, {0x6efe6c11d255b649, 0x11d7314f534b609c},
    {0xb197134fb6ef8a0e, 0x1c8b821885456760}, {0x27ac0f72f8bfa1a5, 0x16d601ad376ab91a},
    {0xb95672c260994e1e, 0x1244ce242c5560e1}, {0xf5571e03cdc21695, 0x1d3ae36d13bbce35},
    {0x2aac18030b01abab, 0x17624f8a762fd82b}, {0xbbbce0026f348956, 0x12b50c6ec4f31355},
    {0x92c7ccd0b1eda889, 0x1dee7a4ad4b81eef}, {0xdbd30a408e57ba07, 0x17f1fb6f10934bf2},
    {0x7ca8d50071dfc806, 0x1327fc58da0f6ff5}, {0xfaa7bb33e9660cd6, 0x1ea6608e29b24cbb},
    {0x9552fc298784d711, 0x18851a0b548ea3c9}, {0xaaa8c9bad2d0ac0e, 0x139dae6f76d88307},
    {0xdddadc5e1e1aace3, 0x1f62b0b257c0d1a5}, {0x7e48b04b4b488a4f, 0x191bc08eac9a4151},
    {0xcb6d59d5d5d3a1d9, 0x141633a556e1cdda}, {0x3c577b1177dc817b, 0x1011c2eaabe7d7e2},
    {0xc6f25e825960cf2a, 0x19b604aaaca62636}, {0x6bf518684780a5bb, 0x14919d5556eb51c5},
    {0x232a79ed06008496, 0x10747ddddf22a7d1}, {0xd1dd8fe1a3340756, 0x1a53fc9631d10c81},
    {0xa7e4731ae8f66c45, 0x150ffd44f4a73d34}, {0x531d28e253f8569e, 0x10d9976a5d52975d},
    {0xeb61db03b98d5762, 0x1af5bf109550f22e}, {0xbc4e48cfc7a445e8, 0x159165a6ddda5b58},
    {0x6371d3d96c836b20, 0x11411e1f17e1e2ad}, {0x9f1c8628ad9f11cd, 0x1b9b6364f3030448},
    {0xe5b06b53be18db0b, 0x1615e91d8f359d06}, {0xeaf3890fcb4715a2, 0x11ab20e472914a6b},
    {0x44b8db4c7871bc37, 0x1c45016d841baa46}, {0x03c715d6c6c1635f, 0x169d9abe03495505},
    {0x3638de456bcde919, 0x1217aefe69077737}, {0x56c163a2461641c1, 0x1cf2b1970e725858},
    {0xdf011c81d1ab67ce, 0x17288e1271f51379}, {0x7f3416ce4155eca5, 0x1286d80ec190dc61},
    {0x6520247d3556476e, 0x1da48ce468e7c702}, {0xea801d30f7783925, 0x17b6d71d20b96c01},
    {0xbb99b0f3f92cfa84, 0x12f8ac174d612334}, {0x5f5c4e532847f739, 0x1e5aacf215683854},
    {0x7f7d0b75b9d32c2e, 0x18488a5b44536043}, {0x9930d5f7c7dc2358, 0x136d3b7c36a919cf},
    {0x8eb4898c72f9d226, 0x1f152bf9f10e8fb2}, {0x722a07a38f2e41b8, 0x18ddbcc7f40ba628},
    {0xc1bb394fa5be9afa, 0x13e497065cd61e86}, {0x9c5ec2190930f7f6, 0x1fd424d6faf030d7},
    {0x49e56814075a5ff8, 0x197683df2f268d79}, {0x6e51201005e1e660, 0x145ecfe5bf520ac7},
    {0xf1da800cd181851a, 0x104bd984990e6f05}, {0x4fc400148268d4f5, 0x1a12f5a0f4e3e4d6},
    {0xd96999aa01ed772b, 0x14dbf7b3f71cb711}, {0xadee1488018ac5bc, 0x10aff95cc5b09274},
    {0x497ceda668de092c, 0x1ab328946f80ea54}, {0x3aca57b853e4d424, 0x155c2076bf9a5510},
    {0x623b7960431d7683, 0x1116805effaeaa73}, {0x9d2bf566d1c8bd9e, 0x1b5733cb32b110b8},
    {0x7dbcc452416d647f, 0x15df5ca28ef40d60}, {0xcafd69db678ab6cc, 0x117f7d4ed8c33de6},
    {0xab2f0fc572778adf, 0x1bff2ee48e052fd7}, {0x88f273045b92d580, 0x1665bf1d3e6a8cac},
    {0xd3f528d049424466, 0x11eaff4a98553d56}, {0xb988414d4203a0a3, 0x1cab3210f3bb9557},
    {0x6139cdd76802e6e9, 0x16ef5b40c2fc7779}, {0xe761717920025254, 0x125915cd68c9f92d},
    {0xa568b58e999d5086, 0x1d5b561574765b7c}, {0x5120913ee14aa6d2, 0x177c44ddf6c515fd},
    {0xa74d40ff1aa21f0e, 0x12c9d0b1923744ca}, {0x0baece64f769cb4a, 0x1e0fb44f50586e11},
    {0x3c8bd850c5ee3c3b, 0x180c903f7379f1a7}, {0xca0979da37f1c9c9, 0x133d4032c2c7f485},
    {0xa9a8c2f6bfe942db, 0x1ec866b79e0cba6f}, {0x2153cf2bccba9be3, 0x18a0522c7e709526},
    {0x1aa9728970954982, 0x13b374f06526ddb8}, {0xf775840f1a88759d, 0x1f8587e7083e2f8c},
    {0x5f9136727ba05e17, 0x19379fec0698260a}, {0x1940f85b9619e4df, 0x142c7ff0054684d5},
    {0xe100c6afab47ea4c, 0x1023998cd1053710}, {0xce67a44c453fdd47, 0x19d28f47b4d524e7},
    {0xd852e9d69dccb106, 0x14a8729fc3ddb71f}, {0x79dbee454b0a2738, 0x1086c219697e2c19},
    {0x295fe3a211a9d859, 0x1a71368f0f30468f}, {0xbab31c81a7bb137a, 0x15275ed8d8f36ba5},
    {0x6228e39aec95a92f, 0x10ec4be0ad8f8951}, {0x9d0e38f7e0ef7517, 0x1b13ac9aaf4c0ee8},
    {0xb0d82d931a592a79, 0x15a956e225d67253}, {0x8d79be0f4847552e, 0x11544581b7dec1dc},
    {0x158f967eda0bbb7c, 0x1bba08cf8c979c94}, {0x77a611ff14d62f97, 0x162e6d72d6dfb076},
    {0xf951a7ff43de8c79, 0x11bebdf578b2f391}, {0xc21c3ffed2fdad8e, 0x1c6463225ab7ec1c},
    {0x01b0333242648ad8, 0x16b6b5b5155ff017}, {0x0159c28e9b83a246, 0x122bc490dde659ac},
    {0xcef604175f3903a3, 0x1d12d41afca3c2ac}, {0x725e69ac4c2d9c83, 0x17424348ca1c9bbd},
    {0xf5185489d68ae39c, 0x129b69070816e2fd}, {0xee8d540fbdab05c6, 0x1dc574d80cf16b2f},
    {0xbed77672fe226b05, 0x17d12a4670c1228c}, {0xff12c528cb4ebc04, 0x130dbb6b8d674ed6},
    {0xcb513b74787df9a0, 0x1e7c5f127bd87e24}, {0x090dc929f9fe614d, 0x18637f41fcad31b7},
    {0xa0d7d42194cb810a, 0x1382cc34ca2427c5}, {0x67bfb9cf5478ce77, 0x1f37ad21436d0c6f},
    {0x1fcc94a5dd2d71f9, 0x18f9574dcf8a7059}, {0x7fd6dd517dbdf4c7, 0x13faac3e3fa1f37a},
    {0xffbe2ee8c92fee0b, 0x1ff779fd329cb8c3}, {0x6631bf20a0f324d6, 0x1992c7fdc216fa36},
    {0xb827cc1a1a5c1d78, 0x14756ccb01abfb5e}, {0x935309ae7b7ce460, 0x105df0a267bcc918},
    {0x1eeb42b0c594a099, 0x1a2fe76a3f9474f4}, {0xe58902270476e6e1, 0x14f31f8832dd2a5c},
    {0xb7a0ce859d2bebe7, 0x10c27fa028b0eeb0}, {0x59014a6f61dfdfd8, 0x1ad0cc33744e4ab4},
    {0xe0cdd525e7e64cad, 0x1573d68f903ea229}, {0x4d7177518651d6f1, 0x11297872d9cbb4ee},
    {0x7be8bee8d6e957e8, 0x1b758d848fac54b0}, {0xfcba3253df211320, 0x15f7a46a0c89dd59},
    {0x63c8284318e74280, 0x1192e9ee706e4aae}, {0x060d0d3827d86a66, 0x1c1e43171a4a1117},
    {0x6b3da42cecad21eb, 0x167e9c127b6e7412}, {0x88fe1cf0bd574e56, 0x11fee341fc585cdb},
    {0x419694b462254a23, 0x1ccb0536608d615f}, {0x67abaa29e81dd4e9, 0x1708d0f84d3de77f},
    {0xb95621bb2017dd87, 0x126d73f9d764b932}, {0xc223692b668c95a5, 0x1d7becc2f23ac1ea},
    {0xce82ba891ed6de1d, 0x179657025b6234bb}, {0xa53562074bdf1818, 0x12deac01e2b4f6fc},
    {0x3b889cd87964f359, 0x1e3113363787f194}, {0xfc6d4a46c783f5e1, 0x18274291c6065adc},
    {0x30576e9f06032b1a, 0x13529ba7d19eaf17}, {0x1a257dcb3cd1de90, 0x1eea92a61c311825},
    {0x481dfe3c30a7e540, 0x18bba884e35a79b7}, {0xd34b31c9c0865100, 0x13c9539d82aec7c5},
    {0x5211e942cda3b4cd, 0x1fa885c8d117a609}, {0x74db21023e1c90a4, 0x19539e3a40dfb807},
    {0xf715b401cb4a0d50, 0x1442e4fb67196005}, {0xf8de299b09080aa7, 0x103583fc527ab337},
    {0x8e304291a80cddd7, 0x19ef3993b72ab859}, {0x3e8d020e200a4b13, 0x14bf6142f8eef9e1},
    {0x653d9b3e80083c0f, 0x10991a9bfa58c7e7}, {0x6ec8f864000d2ce4, 0x1a8e90f9908e0ca5},
    {0x8bd3f9e999a423ea, 0x153eda614071a3b7}, {0x3ca994bae1501cbb, 0x10ff151a99f482f9},
    {0xc775bac49bb3612b, 0x1b31bb5dc320d18e}, {0xd2c4956a16291a89, 0x15c162b168e70e0b},
    {0xdbd0778811ba7ba1, 0x11678227871f3e6f}, {0x2c80bf401c5d929b, 0x1bd8d03f3e9863e6},
    {0xbd33cc3349e47549, 0x16470cff6546b651}, {0xca8fd68f6e505dd4, 0x11d270cc51055ea7},
    {0x4419574be3b3c953, 0x1c83e7ad4e6efdd9}, {0x0347790982f63aa9, 0x16cfec8aa52597e1},
    {0xcf6c60d468c4fbba, 0x123ff06eea847980}, {0xe57a34870e07f92a, 0x1d331a4b10d3f59a},
    {0x512e906c0b399422, 0x175c1508da432ae2}, {0xda8ba6bcd5c7a9b5, 0x12b010d3e1cf5581},
    {0x90df712e22d90f87, 0x1de6815302e5559c}, {0xda4c5a8b4f140c6c, 0x17eb9aa8cf1dde16},
    {0xaea37ba2a5a9a38a, 0x1322e220a5b17e78}, {0x7dd25f6aa2a905a9, 0x1e9e369aa2b59727},
    {0x97db7f888220d154, 0x187e92154ef7ac1f}, {0x797c6606ce80a777, 0x139874ddd8c6234c},
    {0x8f2d700ae4010bf1, 0x1f5a549627a36bad}, {0x0c2459a25000d65a, 0x191510781fb5efbe},
    {0x701d1481d99a4515, 0x1410d9f9b2f7f2fe}, {0xc017439b147b6a77, 0x100d7b2e28c65bfe},
    {0xccf205c4ed9243f2, 0x19af2b7d0e0a2cca}, {0x0a5b37d0be0e9cc2, 0x148c22ca71a1bd6f},
    {0x0848f973cb3ee3ce, 0x10701bd527b4978c}, {0xda0e5bec78649fb0, 0x1a4cf9550c5425ac},
    {0x7b3eaff060507fc0, 0x150a6110d6a9b7bd}, {0x95cbbff380406633, 0x10d51a73deee2c97},
    {0xefac665266cd7052, 0x1aee90b964b04758}, {0x2623850eb8a459db, 0x158ba6fab6f36c47},
    {0x1e82d0d893b6ae49, 0x113c85955f29236c}, {0xfd9e1af41f8ab075, 0x1b9408eefea838ac},
    {0x97b1af29b2d559f7, 0x16100725988693bd}, {0xac8e25baf5777b2c, 0x11a66c1e139edc97},
    {0x7a7d092b2258c513, 0x1c3d79c9b8fe2dbf}, {0x61fda0ef4ead6a76, 0x169794a160cb57cc},
    {0xe7fe1a590bbdeec5, 0x1212dd4de7091309}, {0xa6635d5b45fcb13a, 0x1ceafbafd80e84dc},
    {0x851c4aaf6b308dc8, 0x172262f3133ed0b0}, {0xd0e36ef2bc26d7d4, 0x1281e8c275cbda26},
    {0xb49f17eac6a48c86, 0x1d9ca79d894629d7}, {0x2a18dfef0550706b, 0x17b08617a104ee46},
    {0x54e0b3259dd9f389, 0x12f39e794d9d8b6b}, {0x87cdeb6f62f65274, 0x1e5297287c2f4578},
    {0xd30b22bf825ea85d, 0x18421286c9bf6ac6}, {0x0f3c1bcc684bb9e4, 0x13680ed23aff889f},
    {0x18602c7a4079296d, 0x1f0ce4839198da98}, {0x46b356c833942124, 0x18d71d360e13e213},
    {0x388f78a029434db6, 0x13df4a91a4dcb4dc}, {0x5a7f2766a86baf8a, 0x1fcbaa82a1612160},
    {0x153285ebb9efbfa2, 0x196fbb9bb44db44d}, {0xaa8ed189618c994e, 0x145962e2f6a4903d},
    {0xeed8a7a11ad6e10c, 0x1047824f2bb6d9ca}, {0x7e27729b5e249b45, 0x1a0c03b1df8af611},
    {0xfe85f549181d4904, 0x14d6695b193bf80d}, {0xcb9e5dd4134aa0d0, 0x10ab877c142ff9a4},
    {0xdf63c9535211014d, 0x1aac0bf9b9e65c3a}, {0x191ca10f74da6771, 0x15566ffafb1eb02f},
    {0xadb080d92a4852c1, 0x1111f32f2f4bc025}, {0x15e7348eaa0d5134, 0x1b4feb7eb212cd09},
    {0xab1f5d3eee710dc4, 0x15d98932280f0a6d}, {0xbc1917658b8da49d, 0x117ad428200c0857},
    {0x2cf4f23c127c3a94, 0x1bf7b9d9cce00d59}, {0xf0c3f4fcdb969543, 0x165fc7e170b33de0},
    {0x5a365d9716121103, 0x11e6398126f5cb1a}, {0x9056fc24f01ce804, 0x1ca38f350b22de90},
    {0xd9df301d8ce3ecd0, 0x16e93f5da2824ba6}, {0xe17f59b13d8323da, 0x125432b14ecea2eb},
    {0x68cbc2b52f38395c, 0x1d53844ee47dd179}, {0x53d6355dbf602de3, 0x177603725064a794},
    {0xa9782ab165e68b1c, 0x12c4cf8ea6b6ec76}, {0x0f26aab56fd744fa, 0x1e07b27dd78b13f1},
    {0x3f52222abfdf6a62, 0x18062864ac6f4327}, {0x65db4e88997f884e, 0x1338205089f29c1f},
    {0x6fc54a7428cc0d4a, 0x1ec033b40fea9365}, {0x596aa1f68709a43b, 0x1899c2f673220f84},
    {0xadeee7f86c07b696, 0x13ae3591f5b4d936}, {0x497e3ff3e00c5756, 0x1f7d228322baf524},
    {0xd464fff64cd6ac45, 0x1930e868e89590e9}, {0x4383fff83d7889d1, 0x14272053ed4473ee},
    {0xcf9cccc69793a174, 0x101f4d0ff1038ff1}, {0x7f6147a425b90252, 0x19cbae7fe805b31c},
    {0xcc4dd2e9b7c7350f, 0x14a2f1ffecd15c16}, {0x3d0b0f215fd290d9, 0x10825b3323dab012},
    {0x61ab4b689950e7c1, 0x1a6a2b85062ab350}, {0x4e22a2ba1440b967, 0x1521bc6a6b555c40},
    {0x0b4ee894dd009453, 0x10e7c9eebc4449cd}, {0x1217da87c800ed51, 0x1b0c764ac6d3a948},
    {0xdb46486ca000bdda, 0x15a391d56bdc876c}, {0x490506bd4ccd64af, 0x114fa7ddefe39f8a},
    {0xa8080ac87ae23ab1, 0x1bb2a62fe638ff43}, {0x5339a239fbe82ef4, 0x162884f31e93ff69},
    {0x75c7b4fb2fecf25d, 0x11ba03f5b20fff87}, {0x22d92191e647ea2e, 0x1c5cd322b67fff3f},
    {0xb57a8141850654f2, 0x16b0a8e891ffff65}, {0xc4620101373843f5, 0x1226ed86db3332b7},
    {0x3a366801f1f39fee, 0x1d0b15a491eb8459}, {0xfb5eb99b27f6198b, 0x173c115074bc69e0},
    {0x2f7efae2865e7ad6, 0x129674405d6387e7}, {0xe597f7d0d6fd9156, 0x1dbd86cd6238d971},
    {0x8479930d78cadaab, 0x17cad23de82d7ac1}, {0xd06142712d6f1556, 0x1308a831868ac89a},
    {0x4d686a4eaf182222, 0x1e74404f3daada91}, {0xa453883ef279b4e8, 0x185d003f6488aeda},
    {0xe9dc6cff28615d87, 0x137d99cc506d58ae}, {0xa960ae650d6895a4, 0x1f2f5c7a1a488de4},
    {0xbab3beb73ded4483, 0x18f2b061aea07183},
};

static const uint64_t POW5_SPLIT[326][2] = {
    {0x0000000000000000, 0x1000000000000000}, {0x0000000000000000, 0x1400000000000000},
    {0x0000000000000000, 0x1900000000000000}, {0x0000000000000000, 0x1f40000000000000},
    {0x0000000000000000, 0x1388000000000000}, {0x0000000000000000, 0x186a000000000000},
    {0x0000000000000000, 0x1e84800000000000}, {0x0000000000000000, 0x1312d00000000000},
    {0x0000000000000000, 0x17d7840000000000}, {0x0000000000000000, 0x1dcd650000000000},
    {0x0000000000000000, 0x12a05f2000000000}, {0x0000000000000000, 0x174876e800000000},
    {0x0000000000000000, 0x1d1a94a200000000}, {0x0000000000000000, 0x12309ce540000000},
    {0x0000000000000000, 0x16bcc41e90000000}, {0x0000000000000000, 0x1c6bf52634000000},
    {0x0000000000000000, 0x11c37937e0800000}, {0x0000000000000000, 0x16345785d8a00000},
    {0x0000000000000000, 0x1bc16d674ec80000}, {0x0000000000000000, 0x1158e460913d0000},
    {0x0000000000000000, 0x15af1d78b58c4000}, {0x0000000000000000, 0x1b1ae4d6e2ef5000},
    {0x0000000000000000, 0x10f0cf064dd59200}, {0x0000000000000000, 0x152d02c7e14af680},
    {0x0000000000000000, 0x1a784379d99db420}, {0x0000000000000000, 0x108b2a2c28029094},
    {0x0000000000000000, 0x14adf4b7320334b9}, {0x4000000000000000, 0x19d971e4fe8401e7},
    {0x8800000000000000, 0x1027e72f1f128130}, {0xaa00000000000000, 0x1431e0fae6d7217c},
    {0xd480000000000000, 0x193e5939a08ce9db}, {0xc9a0000000000000, 0x1f8def8808b02452},
    {0xbe04000000000000, 0x13b8b5b5056e16b3}, {0xad85000000000000, 0x18a6e32246c99c60},
    {0xd8e6400000000000, 0x1ed09bead87c0378}, {0x878fe80000000000, 0x13426172c74d822b},
    {0x6973e20000000000, 0x1812f9cf7920e2b6}, {0x03d0da8000000000, 0x1e17b84357691b64},
    {0x8262889000000000, 0x12ced32a16a1b11e}, {0x22fb2ab400000000, 0x178287f49c4a1d66},
    {0xabb9f56100000000, 0x1d6329f1c35ca4bf}, {0xcb54395ca0000000, 0x125dfa371a19e6f7},
    {0xbe2947b3c8000000, 0x16f578c4e0a060b5}, {0x2db399a0ba000000, 0x1cb2d6f618c878e3},
    {0xfc90400474400000, 0x11efc659cf7d4b8d}, {0x7bb4500591500000, 0x166bb7f0435c9e71},
    {0xdaa16406f5a40000, 0x1c06a5ec5433c60d}, {0xa8a4de8459868000, 0x118427b3b4a05bc8},
    {0xd2ce16256fe82000, 0x15e531a0a1c872ba}, {0x87819baecbe22800, 0x1b5e7e08ca3a8f69},
    {0xf4b1014d3f6d5900, 0x111b0ec57e6499a1}, {0x71dd41a08f48af40, 0x1561d276ddfdc00a},
    {0x0e549208b31adb10, 0x1aba4714957d300d}, {0x28f4db456ff0c8ea, 0x10b46c6cdd6e3e08},
    {0x33321216cbecfb24, 0x14e1878814c9cd8a}, {0xbffe969c7ee839ed, 0x1a19e96a19fc40ec},
    {0xf7ff1e21cf512434, 0x105031e2503da893}, {0xf5fee5aa43256d41, 0x14643e5ae44d12b8},
    {0x337e9f14d3eec892, 0x197d4df19d605767}, {0x005e46da08ea7ab6, 0x1fdca16e04b86d41},
    {0xa03aec4845928cb2, 0x13e9e4e4c2f34448}, {0xc849a75a56f72fde, 0x18e45e1df3b0155a},
    {0x7a5c1130ecb4fbd6, 0x1f1d75a5709c1ab1}, {0xec798abe93f11d65, 0x13726987666190ae},
    {0xa797ed6e38ed64bf, 0x184f03e93ff9f4da}, {0x517de8c9c728bdef, 0x1e62c4e38ff87211},
    {0xd2eeb17e1c7976b5, 0x12fdbb0e39fb474a}, {0x87aa5ddda397d462, 0x17bd29d1c87a191d},
    {0xe994f5550c7dc97b, 0x1dac74463a989f64}, {0x11fd195527ce9ded, 0x128bc8abe49f639f},
    {0xd67c5faa71c24568, 0x172ebad6ddc73c86}, {0x8c1b77950e32d6c2, 0x1cfa698c95390ba8},
    {0x57912abd28dfc639, 0x121c81f7dd43a749}, {0xad75756c7317b7c8, 0x16a3a275d494911b},
    {0x98d2d2c78fdda5ba, 0x1c4c8b1349b9b562}, {0x9f83c3bcb9ea8794, 0x11afd6ec0e14115d},
    {0x0764b4abe8652979, 0x161bcca7119915b5}, {0x493de1d6e27e73d7, 0x1ba2bfd0d5ff5b22},
    {0x6dc6ad264d8f0866, 0x1145b7e285bf98f5}, {0xc938586fe0f2ca80, 0x159725db272f7f32},
    {0x7b866e8bd92f7d20, 0x1afcef51f0fb5eff}, {0xad34051767bdae34, 0x10de1593369d1b5f},
    {0x9881065d41ad19c1, 0x15159af804446237}, {0x7ea147f492186032, 0x1a5b01b605557ac5},
    {0x6f24ccf8db4f3c1f, 0x1078e111c3556cbb}, {0x4aee003712230b27, 0x14971956342ac7ea},
    {0xdda98044d6abcdf0, 0x19bcdfabc13579e4}, {0x0a89f02b062b60b6, 0x10160bcb58c16c2f},
    {0xcd2c6c35c7b638e4, 0x141b8ebe2ef1c73a}, {0x8077874339a3c71d, 0x1922726dbaae3909},
    {0xe0956914080cb8e4, 0x1f6b0f092959c74b}, {0x6c5d61ac8507f38e, 0x13a2e965b9d81c8f},
    {0x4774ba17a649f072, 0x188ba3bf284e23b3}, {0x1951e89d8fdc6c8f, 0x1eae8caef261aca0},
    {0x0fd3316279e9c3d9, 0x132d17ed577d0be4}, {0x13c7fdbb186434cf, 0x17f85de8ad5c4edd},
    {0x58b9fd29de7d4203, 0x1df67562d8b36294}, {0xb7743e3a2b0e4942, 0x12ba095dc7701d9c},
    {0xe5514dc8b5d1db92, 0x17688bb5394c2503}, {0xdea5a13ae3465277, 0x1d42aea2879f2e44},
    {0x0b2784c4ce0bf38a, 0x1249ad2594c37ceb}, {0xcdf165f6018ef06d, 0x16dc186ef9f45c25},
    {0x416dbf7381f2ac88, 0x1c931e8ab871732f}, {0x88e497a83137abd5, 0x11dbf316b346e7fd},
    {0xeb1dbd923d8596ca, 0x1652efdc6018a1fc}, {0x25e52cf6cce6fc7d, 0x1be7abd3781eca7c},
    {0x97af3c1a40105dce, 0x1170cb642b133e8d}, {0xfd9b0b20d0147542, 0x15ccfe3d35d80e30},
    {0x3d01cde904199292, 0x1b403dcc834e11bd}, {0x462120b1a28ffb9b, 0x1108269fd210cb16},
    {0xd7a968de0b33fa82, 0x154a3047c694fddb}, {0xcd93c3158e00f923, 0x1a9cbc59b83a3d52},
    {0xc07c59ed78c09bb6, 0x10a1f5b813246653}, {0xb09b7068d6f0c2a3, 0x14ca732617ed7fe8},
    {0xdcc24c830cacf34c, 0x19fd0fef9de8dfe2}, {0xc9f96fd1e7ec180f, 0x103e29f5c2b18bed},
    {0x3c77cbc661e71e13, 0x144db473335deee9}, {0x8b95beb7fa60e598, 0x1961219000356aa3},
    {0x6e7b2e65f8f91efe, 0x1fb969f40042c54c}, {0xc50cfcffbb9bb35f, 0x13d3e2388029bb4f},
    {0xb6503c3faa82a037, 0x18c8dac6a0342a23}, {0xa3e44b4f95234844, 0x1efb1178484134ac},
    {0xe66eaf11bd360d2b, 0x135ceaeb2d28c0eb}, {0xe00a5ad62c839075, 0x183425a5f872f126},
    {0x980cf18bb7a47493, 0x1e412f0f768fad70}, {0x5f0816f752c6c8dc, 0x12e8bd69aa19cc66},
    {0xf6ca1cb527787b13, 0x17a2ecc414a03f7f}, {0xf47ca3e2715699d7, 0x1d8ba7f519c84f5f},
    {0xf8cde66d86d62026, 0x127748f9301d319b}, {0xf7016008e88ba830, 0x17151b377c247e02},
    {0xb4c1b80b22ae923c, 0x1cda62055b2d9d83}, {0x50f91306f5ad1b65, 0x12087d4358fc8272},
    {0xe53757c8b318623f, 0x168a9c942f3ba30e}, {0x9e852dbadfde7acf, 0x1c2d43b93b0a8bd2},
    {0xa3133c94cbeb0cc1, 0x119c4a53c4e69763}, {0x8bd80bb9fee5cff1, 0x16035ce8b6203d3c},
    {0xaece0ea87e9f43ee, 0x1b843422e3a84c8b}, {0x4d40c9294f238a75, 0x1132a095ce492fd7},
    {0x2090fb73a2ec6d12, 0x157f48bb41db7bcd}, {0x68b53a508ba78856, 0x1adf1aea12525ac0},
    {0x417144725748b536, 0x10cb70d24b7378b8}, {0x51cd958eed1ae283, 0x14fe4d06de5056e6},
    {0xe640faf2a8619b24, 0x1a3de04895e46c9f}, {0xefe89cd7a93d00f7, 0x1066ac2d5daec3e3},
    {0xebe2c40d938c4134, 0x14805738b51a74dc}, {0x26db7510f86f5181, 0x19a06d06e2611214},
    {0x9849292a9b4592f1, 0x100444244d7cab4c}, {0xbe5b73754216f7ad, 0x1405552d60dbd61f},
    {0xadf25052929cb598, 0x1906aa78b912cba7}, {0x996ee4673743e2ff, 0x1f485516e7577e91},
    {0xffe54ec0828a6ddf, 0x138d352e5096af1a}, {0xbfdea270a32d0957, 0x18708279e4bc5ae1},
    {0x2fd64b0ccbf84bad, 0x1e8ca3185deb719a}, {0x5de5eee7ff7b2f4c, 0x1317e5ef3ab32700},
    {0x755f6aa1ff59fb1f, 0x17dddf6b095ff0c0}, {0x92b7454a7f3079e7, 0x1dd55745cbb7ecf0},
    {0x5bb28b4e8f7e4c30, 0x12a5568b9f52f416}, {0xf29f2e22335ddf3c, 0x174eac2e8727b11b},
    {0xef46f9aac035570b, 0x1d22573a28f19d62}, {0xd58c5c0ab8215667, 0x123576845997025d},
    {0x4aef730d6629ac01, 0x16c2d4256ffcc2f5}, {0x9dab4fd0bfb41701, 0x1c73892ecbfbf3b2},
    {0xa28b11e277d08e60, 0x11c835bd3f7d784f}, {0x8b2dd65b15c4b1f9, 0x163a432c8f5cd663},
    {0x6df94bf1db35de77, 0x1bc8d3f7b3340bfc}, {0xc4bbcf772901ab0a, 0x115d847ad000877d},
    {0x35eac354f34215cd, 0x15b4e5998400a95d}, {0x8365742a30129b40, 0x1b221effe500d3b4},
    {0xd21f689a5e0ba108, 0x10f5535fef208450}, {0x06a742c0f58e894a, 0x1532a837eae8a565},
    {0x4851137132f22b9d, 0x1a7f5245e5a2cebe}, {0xed32ac26bfd75b42, 0x108f936baf85c136},
    {0xa87f57306fcd3212, 0x14b378469b673184}, {0xd29f2cfc8bc07e97, 0x19e056584240fde5},
    {0xa3a37c1dd7584f1e, 0x102c35f729689eaf}, {0x8c8c5b254d2e62e6, 0x14374374f3c2c65b},
    {0x6faf71eea079fb9f, 0x1945145230b377f2}, {0x0b9b4e6a48987a87, 0x1f965966bce055ef},
    {0x674111026d5f4c94, 0x13bdf7e0360c35b5}, {0xc111554308b71fba, 0x18ad75d8438f4322},
    {0x7155aa93cae4e7a8, 0x1ed8d34e547313eb}, {0x26d58a9c5ecf10c9, 0x13478410f4c7ec73},
    {0xf08aed437682d4fb, 0x1819651531f9e78f}, {0xecada89454238a3a, 0x1e1fbe5a7e786173},
    {0x73ec895cb4963664, 0x12d3d6f88f0b3ce8}, {0x90e7abb3e1bbc3fd, 0x1788ccb6b2ce0c22},
    {0x352196a0da2ab4fd, 0x1d6affe45f818f2b}, {0x0134fe24885ab11e, 0x1262dfeebbb0f97b},
    {0xc1823dadaa715d65, 0x16fb97ea6a9d37d9}, {0x31e2cd19150db4bf, 0x1cba7de5054485d0},
    {0x1f2dc02fad2890f7, 0x11f48eaf234ad3a2}, {0xa6f9303b9872b535, 0x1671b25aec1d888a},
    {0x50b77c4a7e8f6282, 0x1c0e1ef1a724eaad}, {0x5272adae8f199d91, 0x1188d357087712ac},
    {0x670f591a32e004f6, 0x15eb082cca94d757}, {0x40d32f60bf980633, 0x1b65ca37fd3a0d2d},
    {0x4883fd9c77bf03e0, 0x111f9e62fe44483c}, {0x5aa4fd0395aec4d8, 0x156785fbbdd55a4b},
    {0x314e3c447b1a760e, 0x1ac1677aad4ab0de}, {0xded0e5aaccf089c9, 0x10b8e0acac4eae8a},
    {0x96851f15802cac3b, 0x14e718d7d7625a2d}, {0xfc2666dae037d74a, 0x1a20df0dcd3af0b8},
    {0x9d980048cc22e68e, 0x10548b68a044d673}, {0x84fe005aff2ba032, 0x1469ae42c8560c10},
    {0xa63d8071bef6883e, 0x198419d37a6b8f14}, {0xcfcce08e2eb42a4e, 0x1fe52048590672d9},
    {0x21e00c58dd309a70, 0x13ef342d37a407c8}, {0x2a580f6f147cc10d, 0x18eb0138858d09ba},
    {0xb4ee134ad99bf150, 0x1f25c186a6f04c28}, {0x7114cc0ec80176d2, 0x137798f428562f99},
    {0xcd59ff127a01d486, 0x18557f31326bbb7f}, {0xc0b07ed7188249a8, 0x1e6adefd7f06aa5f},
    {0xd86e4f466f516e09, 0x1302cb5e6f642a7b}, {0xce89e3180b25c98b, 0x17c37e360b3d351a},
    {0x822c5bde0def3bee, 0x1db45dc38e0c8261}, {0xf15bb96ac8b58575, 0x1290ba9a38c7d17c},
    {0x2db2a7c57ae2e6d2, 0x1734e940c6f9c5dc}, {0x391f51b6d99ba086, 0x1d022390f8b83753},
    {0x03b3931248014454, 0x1221563a9b732294}, {0x04a077d6da019569, 0x16a9abc9424feb39},
    {0x45c895cc9081fac3, 0x1c5416bb92e3e607}, {0x8b9d5d9fda513cba, 0x11b48e353bce6fc4},
    {0xae84b507d0e58be8, 0x1621b1c28ac20bb5}, {0x1a25e249c51eeee3, 0x1baa1e332d728ea3},
    {0xf057ad6e1b33554d, 0x114a52dffc679925}, {0x6c6d98c9a2002aa1, 0x159ce797fb817f6f},
    {0x4788fefc0a803549, 0x1b04217dfa61df4b}, {0x0cb59f5d8690214e, 0x10e294eebc7d2b8f},
    {0xcfe30734e83429a1, 0x151b3a2a6b9c7672}, {0x83dbc9022241340a, 0x1a6208b50683940f},
    {0xb2695da15568c086, 0x107d457124123c89}, {0x1f03b509aac2f0a7, 0x149c96cd6d16cbac},
    {0x26c4a24c1573acd1, 0x19c3bc80c85c7e97}, {0x783ae56f8d684c03, 0x101a55d07d39cf1e},
    {0x16499ecb70c25f03, 0x1420eb449c8842e6}, {0x9bdc067e4cf2f6c4, 0x19292615c3aa539f},
    {0x82d3081de02fb476, 0x1f736f9b3494e887}, {0xb1c3e512ac1dd0c9, 0x13a825c100dd1154},
    {0xde34de57572544fc, 0x18922f31411455a9}, {0x55c215ed2cee963b, 0x1eb6bafd91596b14},
    {0xb5994db43c151de5, 0x133234de7ad7e2ec}, {0xe2ffa1214b1a655e, 0x17fec216198ddba7},
    {0xdbbf89699de0feb6, 0x1dfe729b9ff15291}, {0x2957b5e202ac9f31, 0x12bf07a143f6d39b},
    {0xf3ada35a8357c6fe, 0x176ec98994f48881}, {0x70990c31242db8bd, 0x1d4a7bebfa31aaa2},
    {0x865fa79eb69c9376, 0x124e8d737c5f0aa5}, {0xe7f791866443b854, 0x16e230d05b76cd4e},
    {0xa1f575e7fd54a669, 0x1c9abd04725480a2}, {0xa53969b0fe54e801, 0x11e0b622c774d065},
    {0x0e87c41d3dea2202, 0x1658e3ab7952047f}, {0xd229b5248d64aa82, 0x1bef1c9657a6859e},
    {0x435a1136d85eea91, 0x117571ddf6c81383}, {0x143095848e76a536, 0x15d2ce55747a1864},
    {0x193cbae5b2144e83, 0x1b4781ead1989e7d}, {0x2fc5f4cf8f4cb112, 0x110cb132c2ff630e},
    {0xbbb77203731fdd56, 0x154fdd7f73bf3bd1}, {0x2aa54e844fe7d4ac, 0x1aa3d4df50af0ac6},
    {0xdaa75112b1f0e4eb, 0x10a6650b926d66bb}, {0xd15125575e6d1e26, 0x14cffe4e7708c06a},
    {0x85a56ead360865b0, 0x1a03fde214caf085}, {0x7387652c41c53f8e, 0x10427ead4cfed653},
    {0x50693e7752368f71, 0x14531e58a03e8be8}, {0x64838e1526c4334e, 0x1967e5eec84e2ee2},
    {0xfda4719a70754022, 0x1fc1df6a7a61ba9a}, {0xde86c70086494815, 0x13d92ba28c7d14a0},
    {0x162878c0a7db9a1a, 0x18cf768b2f9c59c9}, {0x5bb296f0d1d280a1, 0x1f03542dfb83703b},
    {0x194f9e5683239064, 0x1362149cbd322625}, {0x5fa385ec23ec747e, 0x183a99c3ec7eafae},
    {0xf78c67672ce7919d, 0x1e494034e79e5b99}, {0x3ab7c0a07c10bb02, 0x12edc82110c2f940},
    {0x4965b0c89b14e9c3, 0x17a93a2954f3b790}, {0x5bbf1cfac1da2433, 0x1d9388b3aa30a574},
    {0xb957721cb92856a0, 0x127c35704a5e6768}, {0xe7ad4ea3e7726c48, 0x171b42cc5cf60142},
    {0xa198a24ce14f075a, 0x1ce2137f74338193}, {0x44ff65700cd16498, 0x120d4c2fa8a030fc},
    {0x563f3ecc1005bdbe, 0x16909f3b92c83d3b}, {0x2bcf0e7f14072d2e, 0x1c34c70a777a4c8a},
    {0x5b61690f6c847c3d, 0x11a0fc668aac6fd6}, {0xf239c35347a59b4c, 0x16093b802d578bcb},
    {0xeec83428198f021f, 0x1b8b8a6038ad6ebe}, {0x553d20990ff96153, 0x1137367c236c6537},
    {0x2a8c68bf53f7b9a8, 0x1585041b2c477e85}, {0x752f82ef28f5a812, 0x1ae64521f7595e26},
    {0x093db1d57999890b, 0x10cfeb353a97dad8}, {0x0b8d1e4ad7ffeb4e, 0x1503e602893dd18e},
    {0x8e7065dd8dffe622, 0x1a44df832b8d45f1}, {0xf9063faa78bfefd5, 0x106b0bb1fb384bb6},
    {0xb747cf9516efebca, 0x1485ce9e7a065ea4}, {0xe519c37a5cabe6bd, 0x19a742461887f64d},
    {0xaf301a2c79eb7036, 0x1008896bcf54f9f0}, {0xdafc20b798664c43, 0x140aabc6c32a386c},
    {0x11bb28e57e7fdf54, 0x190d56b873f4c688}, {0x1629f31ede1fd72a, 0x1f50ac6690f1f82a},
    {0x4dda37f34ad3e67a, 0x13926bc01a973b1a}, {0xe150c5f01d88e019, 0x187706b0213d09e0},
    {0x19a4f76c24eb181f, 0x1e94c85c298c4c59}, {0xb0071aa39712ef13, 0x131cfd3999f7afb7},
    {0x9c08e14c7cd7aad8, 0x17e43c8800759ba5}, {0x030b199f9c0d958e, 0x1ddd4baa0093028f},
    {0x61e6f003c1887d79, 0x12aa4f4a405be199}, {0xba60ac04b1ea9cd7, 0x1754e31cd072d9ff},
    {0xa8f8d705de65440d, 0x1d2a1be4048f907f}, {0xc99b8663aaff4a88, 0x123a516e82d9ba4f},
    {0xbc0267fc95bf1d2a, 0x16c8e5ca239028e3}, {0xab0301fbbb2ee474, 0x1c7b1f3cac74331c},
    {0xeae1e13d54fd4ec9, 0x11ccf385ebc89ff1}, {0x659a598caa3ca27b, 0x1640306766bac7ee},
    {0xff00efefd4cbcb1a, 0x1bd03c81406979e9}, {0x3f6095f5e4ff5ef0, 0x116225d0c841ec32},
    {0xcf38bb735e3f36ac, 0x15baaf44fa52673e}, {0x8306ea5035cf0457, 0x1b295b1638e7010e},
    {0x11e4527221a162b6, 0x10f9d8ede39060a9}, {0x565d670eaa09bb64, 0x15384f295c7478d3},
    {0x2bf4c0d2548c2a3d, 0x1a8662f3b3919708}, {0x1b78f88374d79a66, 0x1093fdd8503afe65},
    {0x625736a4520d8100, 0x14b8fd4e6449bdfe}, {0xfaed044d6690e140, 0x19e73ca1fd5c2d7d},
    {0xbcd422b0601a8cc8, 0x103085e53e599c6e}, {0x6c092b5c78212ffa, 0x143ca75e8df0038a},
    {0x070b763396297bf8, 0x194bd136316c046d}, {0x48ce53c07bb3daf6, 0x1f9ec583bdc70588},
    {0x2d80f4584d5068da, 0x13c33b72569c6375}, {0x78e1316e60a48310, 0x18b40a4eec437c52},
};

typedef unsigned __int128 uint128;

/* the largest p with 5^p dividing v > 0 */
static uint32_t pow5_factor(uint64_t v)
{
    uint32_t p = 0;
    for (; v % 5 == 0; v /= 5)
        p++;
    return p;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

/* ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e = 0 */
static int32_t pow5_bits(int32_t e)
{
    return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1);
}

/* floor(m * mul / 2^j), mul a 128-bit table entry, j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const uint128 low = (uint128)m * mul[0], high = (uint128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* the shortest round-trip digits of the finite nonzero double with the
   IEEE fields (mantissa, exponent), as *digits x 10^*e10 */
static void shortest(uint64_t mantissa, uint32_t exponent, uint64_t *digits, int32_t *e10)
{
    /* the double is m2 x 2^e2, here with two more bits for the bounds */
    const int32_t e2 = (exponent == 0 ? 1 : (int32_t)exponent) - 1023 - 52 - 2;
    const uint64_t m2 = exponent == 0 ? mantissa : (UINT64_C(1) << 52) | mantissa;
    const int even = (m2 & 1) == 0; /* round half to even: the bounds read back */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = mantissa != 0 || exponent <= 1;
    uint64_t vr, vp, vm;
    int32_t e;
    int vm_zeros = 0, vr_zeros = 0;

    /* the value and its bounds (mv - 1 - mm_shift, mv + 2) in base 10,
       truncated to e10 = e, and whether the truncation dropped only zeros */
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits((int32_t)q) - 1;
        e = (int32_t)q;
        vr = mul_shift(mv, POW5_INV_SPLIT[q], j);
        vp = mul_shift(mv + 2, POW5_INV_SPLIT[q], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV_SPLIT[q], j);
        if (q <= 21) { /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            else
                vp -= pow5_factor(mv + 2) >= q;
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        e = (int32_t)q + e2;
        vr = mul_shift(mv, POW5_SPLIT[i], j);
        vp = mul_shift(mv + 2, POW5_SPLIT[i], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5_SPLIT[i], j);
        if (q <= 1) {
            vr_zeros = 1; /* mv has two trailing zero bits */
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }

    /* drop digits while the bounds still differ in what remains */
    int32_t removed = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        uint32_t last = 0;
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros)
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* an exact tie rounds to even */
        out = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        out = vr + (vr == vm || round_up);
    }
    e += removed;
    for (; out % 10 == 0; out /= 10)
        e++;
    *digits = out;
    *e10 = e;
}

/* repr(x), or "NaN" for a NaN, at out; returns the end */
static char *put_value(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    const uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    if (exponent == 0x7ff && mantissa != 0) {
        memcpy(out, "NaN", 3);
        return out + 3;
    }
    if (bits >> 63)
        *out++ = '-';
    if (exponent == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    uint64_t digits;
    int32_t e10;
    shortest(mantissa, exponent, &digits, &e10);
    char text[20];
    int n = 0;
    for (; digits != 0; digits /= 10)
        text[19 - n++] = (char)('0' + digits % 10);
    const char *d = text + 20 - n;
    const int point = e10 + n; /* x = 0.d x 10^point */

    if (point > -4 && point <= 16) {
        if (point <= 0) {
            memcpy(out, "0.000", 2 - point);
            out += 2 - point;
            memcpy(out, d, n);
            out += n;
        } else if (point < n) {
            memcpy(out, d, point);
            out[point] = '.';
            memcpy(out + point + 1, d + point, n - point);
            out += n + 1;
        } else {
            memcpy(out, d, n);
            memset(out + n, '0', point - n);
            memcpy(out + point, ".0", 2);
            out += point + 2;
        }
        return out;
    }
    int power = point - 1;
    *out++ = d[0];
    if (n > 1) {
        *out++ = '.';
        memcpy(out, d + 1, n - 1);
        out += n - 1;
    }
    *out++ = 'e';
    *out++ = power < 0 ? '-' : '+';
    if (power < 0)
        power = -power;
    if (power >= 100)
        *out++ = (char)('0' + power / 100);
    *out++ = (char)('0' + power / 10 % 10);
    *out++ = (char)('0' + power % 10);
    return out;
}

/* YYYY-MM-DDTHH:MM:SSZ of an epoch second in years 1 to 9999, at out;
   returns the end */
static char *put_stamp(char *out, int64_t seconds)
{
    int64_t days = seconds / 86400, second = seconds % 86400;
    if (second < 0) {
        second += 86400;
        days--;
    }
    /* days since 1970-01-01 to a civil date (Hinnant's days_from_civil,
       inverted), in 400-year eras from 0000-03-01 */
    const int64_t z = days + 719468;
    const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const int64_t doe = z - era * 146097;
    const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const int64_t mp = (5 * doy + 2) / 153;
    const int day = (int)(doy - (153 * mp + 2) / 5 + 1);
    const int month = (int)(mp < 10 ? mp + 3 : mp - 9);
    const int year = (int)(yoe + era * 400 + (month <= 2));
    const int hour = (int)(second / 3600), minute = (int)(second / 60 % 60),
              sec = (int)(second % 60);
    const int fields[6] = {year / 100, year % 100, month, day, hour, minute};
    static const char after[6] = {0, '-', '-', 'T', ':', ':'};
    for (int k = 0; k < 6; k++) {
        out[0] = (char)('0' + fields[k] / 10);
        out[1] = (char)('0' + fields[k] % 10);
        out += 2;
        if (after[k])
            *out++ = after[k];
    }
    out[0] = (char)('0' + sec / 10);
    out[1] = (char)('0' + sec % 10);
    out[2] = 'Z';
    return out + 3;
}

long csv_write(const double *stamps, const double *const *columns, long width, long rows,
               double year_1, double year_10000, char *out)
{
    char *p = out;
    for (long r = 0; r < rows; r++) {
        double whole;
        const double micros = rint(modf(stamps[r], &whole) * 1e6);
        whole = whole + (micros >= 1e6) - (micros < 0);
        if (!(whole >= year_1 && whole < year_10000))
            return -1;
        p = put_stamp(p, (int64_t)whole);
        for (long c = 0; c < width; c++) {
            *p++ = ',';
            p = put_value(p, columns[c][r]);
        }
        *p++ = '\n';
    }
    return p - out;
}
