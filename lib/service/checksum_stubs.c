/* FNV-1a (64-bit) over byte spans of an OCaml [bytes]: the checksum of
   the session journal's records (journal.ml) and of the posture library
   file (posture_library.ml).

   One record's hash is a serial chain, h = (h ^ byte) * prime per byte,
   and the 64-bit multiply's latency bounds it: the chain cannot be
   shortened.  The records of a journal are independent, though, so
   [dadu_fnv1a_verify] runs many of them at once, one chain per lane.

   The scalar pass runs four lanes interleaved in one loop: the
   multiplier starts a lane's next product while the other three lanes'
   products are still in flight.  A lane that reaches the end of its
   record checks it and takes the next record; the last three records
   finish serially.  That keeps the one scalar multiplier busy, about a
   byte per cycle.

   Where the CPU has AVX-512 (F and DQ; the x86-64-v4 level), a wide
   pass comes first: 32 records of at least WIDE_MIN bytes, 8 to a
   vector of 64-bit lanes, 4 vectors interleaved, hash in step the
   shortest one's whole 8-byte blocks.  Each step gathers the next 8
   bytes of every lane and folds them in one at a time with a vector
   multiply (vpmullq), which is not bound to the scalar multiplier:
   about twice the scalar pass's bytes per cycle on journal records.
   The lanes' chains then go on, from the byte where they stopped, in
   the scalar pass, which also checks them.  Records of one journal are
   nearly equal in length, so little is left for it.

   Exactness: every lane performs, byte by byte, the operation the
   serial loop performs, on uint64_t, where xor and multiply wrap modulo
   2^64 exactly as OCaml's Int64.logxor and Int64.mul do; so does each
   64-bit element of the vectors.  Neither pass changes the value of
   any chain, only which record a multiply belongs to.  test_journal.ml
   pins both entry points bit for bit against an OCaml copy of the
   serial loop, with batches long enough for the wide pass.

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

/* A record's chain: [left] bytes from [p] still to hash into [h]; its
   stored checksum follows them.  [id] is its index among the spans. */
typedef struct {
  const unsigned char *p;
  intnat left, id;
  uint64_t h;
} lane;

/* The scalar pass over [n] chains: runs each to the end of its record
   and returns the least of [bad] and the ids whose stored checksum
   differs. */
static intnat run_lanes(const lane *jobs, intnat n, intnat bad)
{
  const unsigned char *p[4];
  intnat left[4], id[4];
  uint64_t h[4];
  intnat next = 0;
  int live = 0;

#define TAKE(k)                                                     \
  do {                                                              \
    p[k] = jobs[next].p;                                            \
    left[k] = jobs[next].left;                                      \
    h[k] = jobs[next].h;                                            \
    id[k] = jobs[next].id;                                          \
    next++;                                                         \
  } while (0)
#define CHECK(k)                                                    \
  do {                                                              \
    if (h[k] != get_le64(p[k]) && id[k] < bad) bad = id[k];         \
  } while (0)

  while (live < 4 && next < n) {
    TAKE(live);
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
      if (next < n) {
        TAKE(k);
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
#undef TAKE
#undef CHECK
}

/* The wide pass, on x86-64 Linux with GCC's function targets: compiled
   for AVX-512 and taken only when the CPU has it. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) \
  && defined(__GNUC__) && defined(__has_attribute)
#if __has_attribute(target)
#define DADU_WIDE 1
#endif
#endif

#define WIDE_GROUPS 4
#define WIDE_LANES (8 * WIDE_GROUPS)
#define WIDE_MIN 256 /* shorter records go to the scalar pass whole */

#ifdef DADU_WIDE
#include <immintrin.h>

/* Hashes the first [blocks] 8-byte blocks of each of the WIDE_LANES
   chains of [w] (all at least that long) and advances them past. */
__attribute__((target("avx512f,avx512dq")))
static void fnv1a_wide(lane *w, intnat blocks)
{
  __m512i h[WIDE_GROUPS], at[WIDE_GROUPS];
  const __m512i prime = _mm512_set1_epi64((long long) FNV_PRIME);
  const __m512i low = _mm512_set1_epi64(0xff);
  const __m512i step = _mm512_set1_epi64(8);
  for (int g = 0; g < WIDE_GROUPS; g++) {
    long long a[8], s[8];
    for (int l = 0; l < 8; l++) {
      a[l] = (long long) (intptr_t) w[(8 * g) + l].p;
      s[l] = (long long) w[(8 * g) + l].h;
    }
    at[g] = _mm512_loadu_si512(a);
    h[g] = _mm512_loadu_si512(s);
  }
  for (intnat b = 0; b < blocks; b++) {
    __m512i q[WIDE_GROUPS];
#pragma GCC unroll 8
    for (int g = 0; g < WIDE_GROUPS; g++) {
      q[g] = _mm512_i64gather_epi64(at[g], (const void *) 0, 1);
      at[g] = _mm512_add_epi64(at[g], step);
    }
    /* byte j of each lane's block, the groups' chains side by side */
#pragma GCC unroll 8
    for (int j = 0; j < 8; j++)
#pragma GCC unroll 8
      for (int g = 0; g < WIDE_GROUPS; g++)
        h[g] = _mm512_mullo_epi64(
          _mm512_xor_si512(h[g], _mm512_and_si512(_mm512_srli_epi64(q[g], 8 * j), low)),
          prime);
  }
  for (int g = 0; g < WIDE_GROUPS; g++) {
    long long s[8];
    _mm512_storeu_si512(s, h[g]);
    for (int l = 0; l < 8; l++) {
      lane *x = &w[(8 * g) + l];
      x->h = (uint64_t) s[l];
      x->p += 8 * blocks;
      x->left -= 8 * blocks;
    }
  }
}

static int wide_supported(void)
{
  static int known = -1; /* a benign race: every thread finds the same */
  if (known < 0)
    known = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
  return known;
}
#endif

/* Span i of [spans] is bytes [off, off + len) of [buf], with off at
   index 2i and len at 2i + 1; its stored checksum is the 8
   little-endian bytes right after it.  Returns the least i whose stored
   checksum differs from the span's FNV-1a, or [count] if all match.
   The spans go through in chunks of CHUNK, each chunk's long records
   first through the wide pass where there is one. */
#define CHUNK 64

intnat dadu_fnv1a_verify(value vbuf, value vspans, intnat count)
{
  const unsigned char *buf = Bytes_val(vbuf);
  intnat bad = count;
  for (intnat base = 0; base < count; base += CHUNK) {
    intnat n = count - base < CHUNK ? count - base : CHUNK;
    lane job[CHUNK];
    for (intnat i = 0; i < n; i++) {
      job[i].p = buf + Long_val(Field(vspans, 2 * (base + i)));
      job[i].left = Long_val(Field(vspans, 2 * (base + i) + 1));
      job[i].h = FNV_OFFSET;
      job[i].id = base + i;
    }
#ifdef DADU_WIDE
    if (n >= WIDE_LANES && wide_supported()) {
      /* the long records first, in waves of WIDE_LANES; the short ones
         after them, untouched */
      lane sorted[CHUNK];
      intnat longs = 0, shorts = n;
      for (intnat i = 0; i < n; i++) {
        if (job[i].left >= WIDE_MIN) sorted[longs++] = job[i];
        else sorted[--shorts] = job[i];
      }
      for (intnat w = 0; w + WIDE_LANES <= longs; w += WIDE_LANES) {
        intnat m = sorted[w].left;
        for (intnat k = 1; k < WIDE_LANES; k++)
          if (sorted[w + k].left < m) m = sorted[w + k].left;
        fnv1a_wide(sorted + w, m / 8);
      }
      bad = run_lanes(sorted, n, bad);
      continue;
    }
#endif
    bad = run_lanes(job, n, bad);
  }
  return bad;
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
