/* Filtered speculation (fk.ml, [speculate_argmin]): find the candidate
   the exact fold of fk_stubs.c would pick, without paying glibc's scalar
   [sincos] per candidate.link.

   One C loop folds every candidate with an inlined, branch-free [sincos]
   (Cody-Waite reduction by pi/4, then the Cephes minimax polynomials, no
   libm call), so GCC vectorizes the candidate loop.  Its positions and
   squared errors are close to the exact fold's but not bit-identical, so
   each candidate's fast err2 e gets an interval e +- delta(e) that
   contains the exact fold's value (DESIGN.md section 9 derives delta).
   The candidates whose interval reaches the lowest upper bound U form
   the set S that can hold the exact argmin: one member is the winner;
   several make the caller re-score [min S, max S] with the exact fold.

   What keeps the winner exact:
   - the angle is formed as the exact fold forms it,
     tv = t0 + ((c_k * dt) + th), under -ffp-contract=off (see dune), so
     both paths take sin/cos of the same double and delta needs no angle
     term; a prismatic link's d and its constant angle's libm cos/sin are
     also the exact fold's;
   - the fast path is declined (return -1, the caller runs the exact
     sweep) unless every coefficient is finite, every revolute angle
     bound |t0| + |th| + max|c_k| |dt| is at most 2^20 (the range the
     reduction and the measured sincos error cover), the bound E is
     finite, and every fast err2 is finite;
   - the bound uses max|c_k| over the range, so it holds whatever the
     step-size ladder.

   The default build vectorizes at baseline SSE2: the quadrant comes from
   int conversions (cvttpd2dq/cvtdq2pd), never from libm [floor], and
   every select is between doubles.  Where GCC supports function
   multiversioning (ELF, glibc, x86-64) the revolute fold also gets an
   x86-64-v4 (AVX-512, 8 doubles wide) and an AVX2 (4 wide) clone, one
   chosen at load time.  Every clone performs the same IEEE operations
   per candidate (no contraction, no fast-math), so all three compute the
   same fast err2 and return the same result.  No flag of the build
   names an instruction set.

   Like fk_stubs.c: [@@noalloc] stubs that allocate nothing, raise
   nothing and never call into the runtime; the OCaml wrapper checks
   every bound and seeds [pos] with the tool translation first. */

#include <float.h>
#include <math.h>
#include "fk_fold.h"

/* The clones, highest priority first: GCC's resolver picks the first
   the CPU supports, and [DADU_CLONE_ISA] asks the same questions in the
   same order. */
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) \
  && defined(__GNUC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DADU_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#define DADU_CLONE_ISA()                                        \
  (__builtin_cpu_supports("x86-64-v4") ? 2                      \
   : __builtin_cpu_supports("avx2")    ? 1                      \
                                       : 0)
#endif
#endif
#ifndef DADU_CLONES
#define DADU_CLONES
#define DADU_CLONE_ISA() 0
#endif

/* Cephes (S. L. Moshier): 4/pi, pi/4 split in three parts whose first
   two have short mantissas (j * DP1 and j * DP2 are exact for j < 2^29),
   and the minimax coefficients of sin and cos on [-pi/4, pi/4]. */
#define FOPI 1.27323954473516268615
#define DP1 7.85398125648498535156e-1
#define DP2 3.77489470793079817668e-8
#define DP3 2.69515142907905952645e-15
#define S0 1.58962301576546568060e-10
#define S1 -2.50507477628578072866e-8
#define S2 2.75573136213857245213e-6
#define S3 -1.98412698295895385996e-4
#define S4 8.33333333332211858878e-3
#define S5 -1.66666666666666307295e-1
#define C0 -1.13585365213876817300e-11
#define C1 2.08757008419747316778e-9
#define C2 -2.75573141792967388112e-7
#define C3 2.48015872888517045348e-5
#define C4 -1.38888888888730564116e-3
#define C5 4.16666666666665929218e-2

/* Largest revolute angle bound of the fast path. */
#define FAST_RANGE 0x1p20

/* u = 2^-53, and eta = 2^-1074 covers an operation's absolute error in
   gradual underflow. */
#define UNIT 0x1p-53
#define ETA 0x1p-1074

/* sin and cos of x for |x| <= FAST_RANGE (a little beyond, for the
   rounding of the angle): absolute error at most 2u against the true
   values (1.58u measured, DESIGN.md section 9).  j is x's octant rounded
   up to even, so z = |x| - j pi/4 lies in [-pi/4, pi/4]; q = j/2 mod 4
   picks the polynomial and the signs. */
static inline void fast_sincos(double x, double *sp, double *cp)
{
  const double ax = fabs(x);
  const int j = ((int) (ax * FOPI) + 1) & ~1;
  const double y = (double) j;
  const double z = ((ax - y * DP1) - y * DP2) - y * DP3;
  const double zz = z * z;
  const double ps =
    z + z * zz * (((((S0 * zz + S1) * zz + S2) * zz + S3) * zz + S4) * zz + S5);
  const double pc = (1.0 - 0.5 * zz)
    + zz * zz * (((((C0 * zz + C1) * zz + C2) * zz + C3) * zz + C4) * zz + C5);
  const double q = (double) ((j >> 1) & 3);
  const int odd = q == 1.0 || q == 3.0;
  const double sm = odd ? pc : ps;
  const double cm = odd ? ps : pc;
  const double s = q >= 2.0 ? -sm : sm;
  *sp = x < 0.0 ? -s : s;
  *cp = (q == 1.0 || q == 2.0) ? -cm : cm;
}

/* One revolute link over candidates [lo, hi): the exact fold's angle and
   position update, with the inlined sincos in place of libm's.  A
   prismatic link folds as in the exact fold. */
DADU_CLONES
static void fold_revolute(double *restrict px, double *restrict py,
                          double *restrict pz, const double *restrict coeffs,
                          intnat lo, intnat hi, double ca, double sa,
                          double a, double d0, double t0, double th,
                          double dt)
{
  for (intnat k = lo; k < hi; k++) {
    const double tv = t0 + ((coeffs[k] * dt) + th);
    double st, ct;
    fast_sincos(tv, &st, &ct);
    fold(px, py, pz, k, ct, st, ca, sa, a, d0);
  }
}

/* Half-width of the interval around a fast err2 e (DESIGN.md section 9). */
static inline double delta(double e, double E)
{
  return 4.0 * (sqrt(e) * E + E * E) + 64.0 * (UNIT * e + ETA);
}

/* Returns the winner k in [lo, hi) when S has one member, -1 to decline
   the fast path, or -2 - (min S * stride + max S) when the exact fold
   must re-score [min S, max S].  [pos] holds the tool translation at
   [lo, hi) on entry; [pos] and [err2] hold fast values at [lo, hi) on a
   non-declined return.  Requires lo < hi. */
CAMLprim intnat dadu_fk_argmin_fast(value vpre, value rev, intnat n,
                                    value vtheta, value vdtheta,
                                    value vcoeffs, value vpos, value verr2,
                                    intnat stride, intnat lo, intnat hi,
                                    value vbase, value vtool, double tx,
                                    double ty, double tz)
{
  const double *pre = Doubles(vpre), *coeffs = Doubles(vcoeffs);
  const double *theta = Doubles(vtheta), *dtheta = Doubles(vdtheta);
  const double *b = Doubles(vbase), *tool = Doubles(vtool);
  double *px = Doubles(vpos), *py = px + stride, *pz = py + stride;
  double *err2 = Doubles(verr2);

  double cmax = 0.0;
  for (intnat k = lo; k < hi; k++) {
    const double c = fabs(coeffs[k]);
    if (!(c <= DBL_MAX)) return -1;
    if (c > cmax) cmax = c;
  }
  /* M bounds every intermediate position of the fold: the tool
     translation, each link's |a| and |d|, and a prismatic link's travel
     |th| + max|c_k| |dt|. */
  double M = sqrt(tool[3] * tool[3] + tool[7] * tool[7] + tool[11] * tool[11]);
  for (intnat i = 0; i < n; i++) {
    const double *c = pre + 5 * i;
    const double travel = fabs(theta[i]) + cmax * fabs(dtheta[i]);
    M += fabs(c[2]) + fabs(c[3]);
    if (Bool_val(Field(rev, i))) {
      if (!(fabs(c[4]) + travel <= FAST_RANGE)) return -1;
    } else
      M += travel;
  }
  /* beta: the largest row norm of the base's linear part (a robot
     file's base need not be a rotation); T: its largest translation. */
  double beta = 0.0, T = 0.0;
  for (int r = 0; r < 3; r++) {
    const double *row = b + 4 * r;
    const double norm = sqrt(row[0] * row[0] + row[1] * row[1] + row[2] * row[2]);
    if (norm > beta) beta = norm;
    if (fabs(row[3]) > T) T = fabs(row[3]);
  }
  const double E = 64.0 * (beta * (32.0 * (double) n + 8.0) * (UNIT * M + ETA)
                           + 2.0 * (UNIT * T + ETA));
  if (!(E <= DBL_MAX)) return -1;

  for (intnat i = n - 1; i >= 0; i--) {
    const double *c = pre + 5 * i;
    const double ca = c[0], sa = c[1], a = c[2], d0 = c[3], t0 = c[4];
    const double th = theta[i], dt = dtheta[i];
    if (Bool_val(Field(rev, i)))
      fold_revolute(px, py, pz, coeffs, lo, hi, ca, sa, a, d0, t0, th, dt);
    else {
      const double ct = cos(t0), st = sin(t0);
      for (intnat k = lo; k < hi; k++)
        fold(px, py, pz, k, ct, st, ca, sa, a, d0 + ((coeffs[k] * dt) + th));
    }
  }

  /* The wrappers' base fold and fused err2, in their operation order. */
  double U = INFINITY;
  for (intnat k = lo; k < hi; k++) {
    const double x = px[k], y = py[k], z = pz[k];
    const double fx = (((b[0] * x) + (b[1] * y)) + (b[2] * z)) + b[3];
    const double fy = (((b[4] * x) + (b[5] * y)) + (b[6] * z)) + b[7];
    const double fz = (((b[8] * x) + (b[9] * y)) + (b[10] * z)) + b[11];
    px[k] = fx;
    py[k] = fy;
    pz[k] = fz;
    const double dx = tx - fx, dy = ty - fy, dz = tz - fz;
    const double e = ((dx * dx) + (dy * dy)) + (dz * dz);
    err2[k] = e;
    if (!(e <= DBL_MAX)) return -1;
    const double up = e + delta(e, E);
    if (up < U) U = up;
  }
  intnat first = -1, last = -1;
  for (intnat k = lo; k < hi; k++)
    if (err2[k] - delta(err2[k], E) <= U) {
      if (first < 0) first = k;
      last = k;
    }
  return first == last ? first : -2 - (first * stride + last);
}

CAMLprim value dadu_fk_argmin_fast_byte(value *argv, int argn)
{
  (void) argn;
  return Val_long(dadu_fk_argmin_fast(
    argv[0], argv[1], Long_val(argv[2]), argv[3], argv[4], argv[5], argv[6],
    argv[7], Long_val(argv[8]), Long_val(argv[9]), Long_val(argv[10]),
    argv[11], argv[12], Double_val(argv[13]), Double_val(argv[14]),
    Double_val(argv[15])));
}

/* sin and cos of every x through the sweep's inlined sincos, for its
   accuracy test. */
CAMLprim value dadu_fk_fast_sincos(value vx, value vs, value vc)
{
  const double *x = Doubles(vx);
  double *s = Doubles(vs), *c = Doubles(vc);
  const mlsize_t n = Wosize_val(vx) / Double_wosize;
  for (mlsize_t i = 0; i < n; i++) fast_sincos(x[i], &s[i], &c[i]);
  return Val_unit;
}

/* Which clone of [fold_revolute] runs here: 2 for x86-64-v4, 1 for
   AVX2, 0 for the baseline build (Fk.sweep_isa). */
CAMLprim value dadu_fk_sweep_isa(value unit)
{
  (void) unit;
  return Val_int(DADU_CLONE_ISA());
}
