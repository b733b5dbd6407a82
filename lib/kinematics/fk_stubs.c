/* The candidate fold of the link-major speculation kernel (fk.ml,
   [sweep_links] and [sweep_rows]): one C loop per sweep.

   Written in OCaml, every [cos] and [sin] of the fold is an external C
   call across which all live float registers are caller-saved, and the
   body makes two of them per candidate-link: the call overhead costs
   more than the fold's 15 flops.  Here the whole link x candidate nest
   is one C function that calls libm from a loop keeping its state in
   registers.

   Exactness: the fold performs the same IEEE double operations in the
   same order as the OCaml body it replaced and calls the same [cos] and
   [sin] that [Stdlib.cos]/[Stdlib.sin] call, so every candidate position
   is bit-identical to the OCaml fold:
     qk = (c_k * dt_i) + th_i       (sweep_links; the row value in rows)
     w  = x + a                     u  = (ca * y) - (sa * z)
     x' = (ct * w) - (st * u)       y' = (st * w) + (ct * u)
     z' = ((sa * y) + (ca * z)) + d
   with theta = t0 + qk, d = d0 for a revolute link and theta = t0,
   d = d0 + qk for a prismatic one.  The build passes -ffp-contract=off
   (see dune) so no product-sum is fused into an FMA on targets that have
   one; it must not use -ffast-math.  GCC merges each cos/sin pair into
   one glibc [sincos] call, which runs the same code paths.
   test_kinematics.ml's speculation-kernel section pins all of this bit
   for bit against an OCaml copy of the fold.

   Both stubs are [@@noalloc]: they allocate nothing, raise nothing and
   never call into the runtime.  They write [pos] only at candidates
   [lo, hi), so concurrent calls over disjoint ranges of one buffer do
   not race.  The OCaml wrappers check every bound before calling. */

#include <math.h>
#include <caml/mlvalues.h>

/* Float arrays are read as [double *]: that needs the flat layout. */
#ifndef FLAT_FLOAT_ARRAY
#error "fk_stubs.c reads float arrays as double *: needs FLAT_FLOAT_ARRAY"
#endif

#define Doubles(v) ((double *) (v))

/* p <- R p + t for one candidate, factored through w and u (15 flops). */
static inline void fold(double *px, double *py, double *pz, intnat k,
                        double ct, double st, double ca, double sa, double a,
                        double d)
{
  const double x = px[k], y = py[k], z = pz[k];
  const double w = x + a;
  const double u = (ca * y) - (sa * z);
  px[k] = (ct * w) - (st * u);
  py[k] = (st * w) + (ct * u);
  pz[k] = ((sa * y) + (ca * z)) + d;
}

/* [pre] holds the compiled link constants [cos a; sin a; a; d; theta0]
   at 5*i and [rev] the revolute flags (Fk.scratch).  Links fold from
   n-1 down to 0; the revolute test runs once per link, and a prismatic
   link's constant angle takes its cos/sin once.  Candidate k of
   [sweep_links] is theta + coeffs[k] * dtheta. */
CAMLprim value dadu_fk_fold_links(value vpre, value rev, intnat n,
                                  value vtheta, value vdtheta, value vcoeffs,
                                  value vpos, intnat stride, intnat lo,
                                  intnat hi)
{
  const double *pre = Doubles(vpre), *coeffs = Doubles(vcoeffs);
  const double *theta = Doubles(vtheta), *dtheta = Doubles(vdtheta);
  double *px = Doubles(vpos), *py = px + stride, *pz = py + stride;
  for (intnat i = n - 1; i >= 0; i--) {
    const double *c = pre + 5 * i;
    const double ca = c[0], sa = c[1], a = c[2], d0 = c[3], t0 = c[4];
    const double th = theta[i], dt = dtheta[i];
    if (Bool_val(Field(rev, i))) {
      for (intnat k = lo; k < hi; k++) {
        const double tv = t0 + ((coeffs[k] * dt) + th);
        fold(px, py, pz, k, cos(tv), sin(tv), ca, sa, a, d0);
      }
    } else {
      const double ct = cos(t0), st = sin(t0);
      for (intnat k = lo; k < hi; k++)
        fold(px, py, pz, k, ct, st, ca, sa, a, d0 + ((coeffs[k] * dt) + th));
    }
  }
  return Val_unit;
}

/* Candidate k of [sweep_rows] is row k of the lane-major plane
   [thetas] (joint i at k * tstride + i). */
CAMLprim value dadu_fk_fold_rows(value vpre, value rev, intnat n,
                                 value vthetas, intnat tstride, value vpos,
                                 intnat stride, intnat lo, intnat hi)
{
  const double *pre = Doubles(vpre), *thetas = Doubles(vthetas);
  double *px = Doubles(vpos), *py = px + stride, *pz = py + stride;
  for (intnat i = n - 1; i >= 0; i--) {
    const double *c = pre + 5 * i;
    const double ca = c[0], sa = c[1], a = c[2], d0 = c[3], t0 = c[4];
    const double *q = thetas + i;
    if (Bool_val(Field(rev, i))) {
      for (intnat k = lo; k < hi; k++) {
        const double tv = t0 + q[k * tstride];
        fold(px, py, pz, k, cos(tv), sin(tv), ca, sa, a, d0);
      }
    } else {
      const double ct = cos(t0), st = sin(t0);
      for (intnat k = lo; k < hi; k++)
        fold(px, py, pz, k, ct, st, ca, sa, a, d0 + q[k * tstride]);
    }
  }
  return Val_unit;
}

/* Bytecode entry points: externals of more than five arguments receive
   them as an array. */
CAMLprim value dadu_fk_fold_links_byte(value *argv, int argn)
{
  (void) argn;
  return dadu_fk_fold_links(argv[0], argv[1], Long_val(argv[2]), argv[3],
                            argv[4], argv[5], argv[6], Long_val(argv[7]),
                            Long_val(argv[8]), Long_val(argv[9]));
}

CAMLprim value dadu_fk_fold_rows_byte(value *argv, int argn)
{
  (void) argn;
  return dadu_fk_fold_rows(argv[0], argv[1], Long_val(argv[2]), argv[3],
                           Long_val(argv[4]), argv[5], Long_val(argv[6]),
                           Long_val(argv[7]), Long_val(argv[8]));
}
