/* C's "%.17g" text of a double, without printf: the reply encoder's
   float writer (reply_text.ml).

   A finite positive double is x = m * 2^e with a 53-bit integer m.  Its
   17 significant digits are D = round(x * 10^k) with k = 16 - X, X the
   decimal exponent (10^16 <= D < 10^17).  For 1e-22 <~ x < 2^53, e is
   at most 0 and k lies in [1, 38], so x * 10^k = (m * 10^k) / 2^-e:
   the product is exact in 192 bits (m < 2^53, 10^k < 2^127), the
   quotient is a right shift, and the bits shifted out are the exact
   remainder, which rounds half to even as glibc's printf does in the
   default rounding mode.  X is first estimated from the binary exponent
   and corrected by one until 10^16 <= floor(x * 10^k) < 10^17; a
   rounding carry to 10^17 moves X up by one, as C's %g does (X is the
   exponent of the rounded value).

   The digits are then laid out by C's %g rules for precision 17: fixed
   notation when -4 <= X < 17, else d.ddde-XX; trailing zeros of the
   fraction and a bare decimal point are dropped.

   Zero is written directly.  Everything else (NaN, infinities,
   subnormals, |x| >= 2^53, |x| below about 1e-22) and every build
   without unsigned __int128 returns -1: the OCaml wrapper then calls
   caml_format_float "%.17g".  test_server.ml compares the writer with
   Printf's "%.17g" on exact ties, the neighbours of powers of ten and
   random bit patterns.

   The stub is [@@noalloc]: it allocates nothing, raises nothing and
   never calls into the runtime.  It writes at most 24 bytes; the OCaml
   wrapper checks that they fit. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#ifdef __SIZEOF_INT128__

typedef unsigned __int128 u128;

static const uint64_t pow10_u64[20] = {
  UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000),
  UINT64_C(10000), UINT64_C(100000), UINT64_C(1000000),
  UINT64_C(10000000), UINT64_C(100000000), UINT64_C(1000000000),
  UINT64_C(10000000000), UINT64_C(100000000000),
  UINT64_C(1000000000000), UINT64_C(10000000000000),
  UINT64_C(100000000000000), UINT64_C(1000000000000000),
  UINT64_C(10000000000000000), UINT64_C(100000000000000000),
  UINT64_C(1000000000000000000), UINT64_C(10000000000000000000)
};

#define E16 UINT64_C(10000000000000000)
#define E17 UINT64_C(100000000000000000)

/* t = m * 10^k, three 64-bit limbs, least significant first; k <= 38 */
static inline void mul_pow10(uint64_t m, int k, uint64_t t[3])
{
  int k1 = k < 19 ? k : 19;
  u128 p = (u128) pow10_u64[k1] * pow10_u64[k - k1];
  u128 lo = (u128) m * (uint64_t) p;
  u128 hi = (u128) m * (uint64_t) (p >> 64) + (uint64_t) (lo >> 64);
  t[0] = (uint64_t) lo;
  t[1] = (uint64_t) hi;
  t[2] = (uint64_t) (hi >> 64);
}

/* bit i of t, i in [0, 192) */
static inline int bit_at(const uint64_t t[3], int i)
{
  return (int) ((t[i >> 6] >> (i & 63)) & 1);
}

/* whether any of the bits [0, i) of t is set, i in [0, 192) */
static inline int any_below(const uint64_t t[3], int i)
{
  int w = i >> 6, r = i & 63;
  for (int j = 0; j < w; j++)
    if (t[j] != 0) return 1;
  return r != 0 && (t[w] & ((UINT64_C(1) << r) - 1)) != 0;
}

/* floor(t / 2^s) when it is below 2^64, else UINT64_MAX; s in [0, 192) */
static inline uint64_t shift_down(const uint64_t t[3], int s)
{
  int w = s >> 6, r = s & 63;
  uint64_t lo = t[w];
  uint64_t hi = w < 2 ? t[w + 1] : 0;
  uint64_t above = w < 1 ? t[2] : 0; /* a limb wholly at bit s + 64 or up */
  if (above != 0 || (r == 0 ? hi != 0 : (hi >> r) != 0)) return UINT64_MAX;
  return r == 0 ? lo : (lo >> r) | (hi << (64 - r));
}

intnat dadu_g17_write(value vbuf, intnat off, double x)
{
  unsigned char *out = (unsigned char *) Bytes_val(vbuf) + off;
  uint64_t bits;
  memcpy(&bits, &x, sizeof bits);
  int neg = (int) (bits >> 63);
  int bexp = (int) ((bits >> 52) & 0x7ff);
  uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
  int n = 0;

  if (bexp == 0 && frac == 0) {
    if (neg) out[n++] = '-';
    out[n++] = '0';
    return n;
  }
  if (bexp == 0 || bexp == 0x7ff) return -1; /* subnormal, inf, nan */
  int e = bexp - 1075;                        /* x = m * 2^e */
  if (e > 0) return -1;                       /* |x| >= 2^53 */
  uint64_t m = frac | (UINT64_C(1) << 52);
  int s = -e;
  if (s > 127) return -1; /* |x| < 2^-75: k would exceed 38; keeps s < 192 */

  /* floor((e + 52) * log10 2), then corrected to the exact X */
  int X = ((e + 52) * 78913) >> 18;
  uint64_t t[3], q = 0;
  int tries = 0;
  for (;;) {
    int k = 16 - X;
    if (k < 0 || k > 38 || ++tries > 4) return -1;
    mul_pow10(m, k, t);
    q = shift_down(t, s);
    if (q >= E17) X++;
    else if (q < E16) X--;
    else break;
  }
  if (s > 0 && bit_at(t, s - 1) && ((q & 1) || any_below(t, s - 1))) q++;
  if (q == E17) {
    q = E16;
    X++;
  }

  /* d[0] then two independent 8-digit halves in 32-bit arithmetic */
  char d[17];
  uint32_t hi8 = (uint32_t) ((q % E16) / 100000000);
  uint32_t lo8 = (uint32_t) (q % 100000000);
  d[0] = (char) ('0' + q / E16);
  for (int i = 8; i >= 1; i--) {
    d[i] = (char) ('0' + hi8 % 10);
    d[i + 8] = (char) ('0' + lo8 % 10);
    hi8 /= 10;
    lo8 /= 10;
  }
  int nd = 17;
  while (nd > 1 && d[nd - 1] == '0') nd--;

  if (neg) out[n++] = '-';
  if (X >= 0) {
    /* X <= 16 here: |x| < 2^53 < 10^16 before rounding */
    for (int i = 0; i <= X; i++) out[n++] = d[i];
    if (nd > X + 1) {
      out[n++] = '.';
      for (int i = X + 1; i < nd; i++) out[n++] = d[i];
    }
  } else if (X >= -4) {
    out[n++] = '0';
    out[n++] = '.';
    for (int i = 0; i < -X - 1; i++) out[n++] = '0';
    for (int i = 0; i < nd; i++) out[n++] = d[i];
  } else {
    /* -38 <= X < -4: a two-digit exponent */
    out[n++] = d[0];
    if (nd > 1) {
      out[n++] = '.';
      for (int i = 1; i < nd; i++) out[n++] = d[i];
    }
    out[n++] = 'e';
    out[n++] = '-';
    out[n++] = (unsigned char) ('0' + (-X) / 10);
    out[n++] = (unsigned char) ('0' + (-X) % 10);
  }
  return n;
}

#else

intnat dadu_g17_write(value vbuf, intnat off, double x)
{
  (void) vbuf;
  (void) off;
  (void) x;
  return -1;
}

#endif

/* Bytecode entry point: the arguments arrive tagged and boxed. */
value dadu_g17_write_byte(value vbuf, value voff, value vx)
{
  return Val_long(dadu_g17_write(vbuf, Long_val(voff), Double_val(vx)));
}
