/* CSV rows of float64 and int64 columns, each cell as Python writes it.
 *
 * A float64 cell is repr(float): the shortest decimal string that reads back
 * to the same double, and of those the one closest to it, ties going to the
 * even digit.  With decpt the position of the decimal point (the value is
 * 0.d1d2...dn * 10^decpt), it is laid out in exponent form iff decpt <= -4 or
 * decpt > 16, as d1[.d2...dn]e+XX with at least two exponent digits, and
 * otherwise in fixed form, with ".0" appended to an integral value.  nan,
 * inf and -inf are spelled so, and -0.0 keeps its sign.  An int64 cell is
 * str(int).
 *
 * The digits come from Ryu (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018): the interval of decimals that round to the double is scaled by
 * a power of 5 held to 125 bits, and digits are removed while the interval
 * still holds a shorter one.  The power-of-5 tables are computed exactly on
 * Python integers by simulation._pow5_tables and handed to gpcert_csv_tables
 * when the library is loaded.
 */
#include <stdint.h>
#include <string.h>

#define MANTISSA_BITS 52
#define EXPONENT_BIAS 1023
#define POW5_BITS 125
/* Table sizes: q <= 290 indexes POW5_INV (the largest biased exponent 2046
 * gives e2 = 969), and -e2 - q <= 325 indexes POW5 (the subnormals' e2 is
 * -1076).  simulation._pow5_tables builds them at these sizes. */
#define POW5_INV_COUNT 291
#define POW5_COUNT 326

/* floor(2^(bitlength(5^i) - 1 + POW5_BITS) / 5^i) + 1, low word first */
static uint64_t POW5_INV[POW5_INV_COUNT][2];
/* 5^i shifted to exactly POW5_BITS bits, low word first */
static uint64_t POW5[POW5_COUNT][2];

/* Copy the two tables in; returns 0, or -1 when their sizes are not this file's. */
int32_t gpcert_csv_tables(int32_t inv_count, const uint64_t *inv, int32_t count, const uint64_t *pow5)
{
    if (inv_count != POW5_INV_COUNT || count != POW5_COUNT)
        return -1;
    memcpy(POW5_INV, inv, sizeof POW5_INV);
    memcpy(POW5, pow5, sizeof POW5);
    return 0;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

/* bitlength(5^e) for 0 <= e <= 3528 */
static int32_t pow5_bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int32_t p) { return (v & ((1ull << p) - 1)) == 0; }

/* (m * mul) >> j for the 128-bit mul, 64 <= j < 128 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const unsigned __int128 lo = (unsigned __int128)m * mul[0], hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* The shortest closest decimal of the finite nonzero double with this biased
 * exponent and mantissa: *digits * 10^(return value). */
static int32_t shortest(uint32_t ieee_exponent, uint64_t ieee_mantissa, uint64_t *digits)
{
    /* two extra bits for the interval's bounds */
    const int32_t e2 = (ieee_exponent ? (int32_t)ieee_exponent : 1) - EXPONENT_BIAS - MANTISSA_BITS - 2;
    const uint64_t m2 = ieee_exponent ? (1ull << MANTISSA_BITS) | ieee_mantissa : ieee_mantissa;
    const int accept_bounds = (m2 & 1) == 0; /* an even mantissa wins ties when the string is read back */
    const uint64_t mv = 4 * m2;
    /* the lower bound is closer where the mantissa is 0 and the exponent steps down */
    const uint32_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const int32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        e10 = q;
        vr = mul_shift(mv, POW5_INV[q], j);
        vp = mul_shift(mv + 2, POW5_INV[q], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV[q], j);
        if (q <= 21) {
            /* at most one of mv, mv + 2 and mv - 1 - mm_shift is a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - q;
        const int32_t j = q - (pow5_bits(i) - POW5_BITS);
        e10 = q + e2;
        vr = mul_shift(mv, POW5[i], j);
        vp = mul_shift(mv + 2, POW5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5[i], j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mv + 2 one, mv - 1 - mm_shift one iff mm_shift */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t out;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* the exact case: the removed digits may all be zero */
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4; /* exactly halfway: round to even */
        out = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) { /* two digits at once, as most doubles allow */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *digits = out;
    return e10 + removed;
}

/* The decimal digits of v, most significant first, into buf; returns their count. */
static int digits_of(uint64_t v, char *buf)
{
    char tmp[20];
    int n = 0;
    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (int i = 0; i < n; i++)
        buf[i] = tmp[n - 1 - i];
    return n;
}

/* repr(x) into p; returns the end of the cell. */
static char *format_double(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint32_t ieee_exponent = (uint32_t)((bits >> MANTISSA_BITS) & 0x7ff);
    const uint64_t ieee_mantissa = bits & ((1ull << MANTISSA_BITS) - 1);
    if (ieee_exponent == 0x7ff && ieee_mantissa) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (ieee_exponent == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (!ieee_exponent && !ieee_mantissa) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t value;
    const int32_t exponent = shortest(ieee_exponent, ieee_mantissa, &value);
    char d[20];
    const int n = digits_of(value, d);
    const int32_t decpt = n + exponent;
    if (decpt <= -4 || decpt > 16) {
        int32_t e = decpt - 1;
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(n - 1));
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p += -decpt;
        memcpy(p, d, (size_t)n);
        p += n;
    } else if (decpt >= n) {
        memcpy(p, d, (size_t)n);
        p += n;
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        memcpy(p, ".0", 2);
        p += 2;
    } else {
        memcpy(p, d, (size_t)decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, d + decpt, (size_t)(n - decpt));
        p += n - decpt;
    }
    return p;
}

/* str(v) into p; returns the end of the cell. */
static char *format_int(int64_t v, char *p)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    return p + digits_of(u, p);
}

/* Rows lo to hi - 1 of ncols columns as CSV lines into out; returns the bytes written.
 *
 * Column c's row r is at cols[c] + r * strides[c] bytes, a double where
 * kinds[c] is 'f' and an int64 where it is 'i'.  out must hold 25 bytes a
 * cell, the longest cell (-2.2250738585072014e-308) and its separator.
 */
int64_t gpcert_csv_rows(int64_t lo, int64_t hi, int32_t ncols, const char *kinds, const char *const *cols,
                        const int64_t *strides, char *out)
{
    char *p = out;
    for (int64_t r = lo; r < hi; r++) {
        for (int32_t c = 0; c < ncols; c++) {
            const char *cell = cols[c] + r * strides[c];
            if (kinds[c] == 'f') {
                double x;
                memcpy(&x, cell, sizeof x);
                p = format_double(x, p);
            } else {
                int64_t v;
                memcpy(&v, cell, sizeof v);
                p = format_int(v, p);
            }
            *p++ = c + 1 < ncols ? ',' : '\n';
        }
    }
    return (int64_t)(p - out);
}
