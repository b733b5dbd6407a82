/* A byte slab: a fixed number of equal slots in one malloc'd block
   outside the OCaml heap (slab.ml), the storage of a session's reply
   window (session.ml, DESIGN.md §16).

   The custom block holds only the block's address.  It is allocated
   with caml_alloc_custom(..., 0, 1): the malloc'd bytes are not reported
   to the GC, so they neither count toward the major heap's size nor
   speed up its collection.  The owner frees the block with
   [dadu_slab_release] when the window's session closes; the finaliser
   frees whatever the owner did not.

   The slot geometry (slot count, slot width, each slot's length) lives
   on the OCaml side, which checks every offset and length before
   calling.  All but [dadu_slab_create] are [@@noalloc]: they allocate
   nothing on the OCaml heap, raise nothing and never call into the
   runtime. */

#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>

#define Slab_bytes(v) (*((unsigned char **) Data_custom_val(v)))

static void slab_finalize(value v)
{
  free(Slab_bytes(v));
  Slab_bytes(v) = NULL;
}

static struct custom_operations slab_ops = {
  "dadu.slab",
  slab_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

/* An empty slab: no block until the first regrid. */
value dadu_slab_create(value unit)
{
  value v = caml_alloc_custom(&slab_ops, sizeof(unsigned char *), 0, 1);
  (void) unit;
  Slab_bytes(v) = NULL;
  return v;
}

/* Moves the slab to a fresh block of Wosize(lengths) slots of [cap]
   bytes each, copying the first lengths[i] bytes of slot i from the old
   block, whose slots are [old_cap] bytes wide, then frees the old block.
   Returns 0, leaving the slab as it was, if the block cannot be
   allocated. */
intnat dadu_slab_regrid(value v, value lengths, intnat old_cap, intnat cap)
{
  mlsize_t slots = Wosize_val(lengths);
  size_t size = (size_t) slots * (size_t) cap;
  unsigned char *old = Slab_bytes(v);
  unsigned char *fresh = malloc(size > 0 ? size : 1);
  if (fresh == NULL) return 0;
  for (mlsize_t i = 0; i < slots; i++) {
    intnat len = Long_val(Field(lengths, i));
    if (len > 0)
      memcpy(fresh + (size_t) i * cap, old + (size_t) i * old_cap, len);
  }
  free(old);
  Slab_bytes(v) = fresh;
  return 1;
}

/* Copies all of string [s] into the block at byte [off]. */
value dadu_slab_put(value v, intnat off, value s)
{
  mlsize_t len = caml_string_length(s);
  if (len > 0) memcpy(Slab_bytes(v) + off, String_val(s), len);
  return Val_unit;
}

/* Fills all of [dst] from the block at byte [off]. */
value dadu_slab_get(value v, intnat off, value dst)
{
  mlsize_t len = caml_string_length(dst);
  if (len > 0) memcpy(Bytes_val(dst), Slab_bytes(v) + off, len);
  return Val_unit;
}

/* Frees the block now; the slab is empty again. */
value dadu_slab_release(value v)
{
  free(Slab_bytes(v));
  Slab_bytes(v) = NULL;
  return Val_unit;
}

/* Bytecode entry points: the arguments arrive tagged. */
value dadu_slab_regrid_byte(value v, value lengths, value old_cap, value cap)
{
  return Val_long(dadu_slab_regrid(v, lengths, Long_val(old_cap), Long_val(cap)));
}

value dadu_slab_put_byte(value v, value off, value s)
{
  return dadu_slab_put(v, Long_val(off), s);
}

value dadu_slab_get_byte(value v, value off, value dst)
{
  return dadu_slab_get(v, Long_val(off), dst);
}
