/* What the exact candidate fold (fk_stubs.c) and the filtered one
   (fk_filter.c) share: float arrays read as [double *], and the 15-flop
   position update of one candidate, in one operation order. */

#ifndef DADU_FK_FOLD_H
#define DADU_FK_FOLD_H

#include <caml/mlvalues.h>

/* Float arrays are read as [double *]: that needs the flat layout. */
#ifndef FLAT_FLOAT_ARRAY
#error "the candidate folds read float arrays as double *: needs FLAT_FLOAT_ARRAY"
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

#endif
