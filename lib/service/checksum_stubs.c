/* FNV-1a (64-bit) over byte spans of an OCaml [bytes]: the checksum of
   the session journal's records (journal.ml) and of the posture library
   file (posture_library.ml).

   One record's hash is a serial chain, h = (h ^ byte) * prime per byte,
   and the 64-bit multiply's latency bounds it: the chain cannot be
   shortened.  The records of a journal are independent, though, so
   [dadu_fnv1a_verify] runs four of them at once, one chain per lane,
   interleaved in one loop: the multiplier starts a lane's next product
   while the other three lanes' products are still in flight.  A lane
   that reaches the end of its record checks it and takes the next
   record; the last three records finish serially.

   Exactness: every lane performs, byte by byte, the operation the
   serial loop performs, on uint64_t, where xor and multiply wrap modulo
   2^64 exactly as OCaml's Int64.logxor and Int64.mul do.  The
   interleaving only changes which record a multiply belongs to, never
   the value of any chain.  test_journal.ml pins both entry points bit
   for bit against an OCaml copy of the serial loop.

   Both stubs are [@@noalloc]: they allocate nothing, raise nothing and
   never call into the runtime.  The OCaml wrappers (checksum.ml) check
   every span against the buffer before calling. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define FNV_OFFSET UINT64_C(0xcbf29ce484222325)
#define FNV_PRIME UINT64_C(0x100000001b3)

static inline uint64_t get_le64(const unsigned char *p)
{
  uint64_t v = 0;
  for (int i = 7; i >= 0; i--) v = (v << 8) | p[i];
  return v;
}

static inline void set_le64(unsigned char *p, uint64_t v)
{
  for (int i = 0; i < 8; i++) p[i] = (unsigned char) (v >> (8 * i));
}

static inline uint64_t fnv1a(uint64_t h, const unsigned char *p, intnat n)
{
  for (intnat i = 0; i < n; i++) h = (h ^ p[i]) * FNV_PRIME;
  return h;
}

/* Span i of [spans] is bytes [off, off + len) of [buf], with off at
   index 2i and len at 2i + 1; its stored checksum is the 8
   little-endian bytes right after it.  Returns the least i whose stored
   checksum differs from the span's FNV-1a, or [count] if all match. */
intnat dadu_fnv1a_verify(value vbuf, value vspans, intnat count)
{
  const unsigned char *buf = Bytes_val(vbuf);
  const unsigned char *p[4];
  intnat left[4], id[4];
  uint64_t h[4];
  intnat bad = count, next = 0;
  int live = 0;

#define SPAN_OFF(i) Long_val(Field(vspans, 2 * (i)))
#define SPAN_LEN(i) Long_val(Field(vspans, 2 * (i) + 1))
#define CHECK(k)                                                    \
  do {                                                              \
    if (h[k] != get_le64(p[k]) && id[k] < bad) bad = id[k];         \
  } while (0)

  while (live < 4 && next < count) {
    p[live] = buf + SPAN_OFF(next);
    left[live] = SPAN_LEN(next);
    h[live] = FNV_OFFSET;
    id[live] = next++;
    live++;
  }
  while (live == 4) {
    intnat m = left[0];
    for (int k = 1; k < 4; k++)
      if (left[k] < m) m = left[k];
    {
      const unsigned char *p0 = p[0], *p1 = p[1], *p2 = p[2], *p3 = p[3];
      uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
      for (intnat i = 0; i < m; i++) {
        h0 = (h0 ^ p0[i]) * FNV_PRIME;
        h1 = (h1 ^ p1[i]) * FNV_PRIME;
        h2 = (h2 ^ p2[i]) * FNV_PRIME;
        h3 = (h3 ^ p3[i]) * FNV_PRIME;
      }
      h[0] = h0; h[1] = h1; h[2] = h2; h[3] = h3;
    }
    for (int k = 0; k < 4; k++) {
      p[k] += m;
      left[k] -= m;
    }
    /* lanes whose record ended: check it, then take the next record or
       retire the lane (the last live lane moves into its place) */
    for (int k = 0; k < live;) {
      if (left[k] > 0) { k++; continue; }
      CHECK(k);
      if (next < count) {
        p[k] = buf + SPAN_OFF(next);
        left[k] = SPAN_LEN(next);
        h[k] = FNV_OFFSET;
        id[k] = next++;
        k++;
      } else {
        live--;
        p[k] = p[live]; left[k] = left[live]; h[k] = h[live]; id[k] = id[live];
      }
    }
  }
  for (int k = 0; k < live; k++) {
    h[k] = fnv1a(h[k], p[k], left[k]);
    p[k] += left[k];
    CHECK(k);
  }
  return bad;
#undef SPAN_OFF
#undef SPAN_LEN
#undef CHECK
}

/* Writes the FNV-1a of bytes [off, off + len) of [buf] as the 8
   little-endian bytes right after them: the span's stored checksum. */
value dadu_fnv1a_seal(value vbuf, intnat off, intnat len)
{
  unsigned char *b = Bytes_val(vbuf) + off;
  set_le64(b + len, fnv1a(FNV_OFFSET, b, len));
  return Val_unit;
}

/* Bytecode entry points: the arguments arrive tagged. */
value dadu_fnv1a_verify_byte(value vbuf, value vspans, value vcount)
{
  return Val_long(dadu_fnv1a_verify(vbuf, vspans, Long_val(vcount)));
}

value dadu_fnv1a_seal_byte(value vbuf, value voff, value vlen)
{
  return dadu_fnv1a_seal(vbuf, Long_val(voff), Long_val(vlen));
}
