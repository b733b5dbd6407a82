/* The copy half of a journal compaction (journal.ml, DESIGN.md §16):
   byte ranges of one file appended to another, verbatim.

   [dadu_journal_copy] takes the (offset, length) pairs of the records
   to keep, in a Bigarray of OCaml ints, sorts them there by offset,
   drops duplicates, and appends each record's bytes (length header,
   payload and checksum, as they lie in the source) to the destination
   in that order; adjacent records go in one run.  With [sync] it
   fsyncs the destination afterwards.  All of it runs outside the OCaml
   runtime lock (the Bigarray's data does not move), so the dispatcher
   keeps serving while a helper thread waits here.  It returns how many
   distinct pairs now lead the array; an I/O error raises [Sys_error]
   with the system's message.

   The OCaml wrapper checks the pairs (non-negative, inside the source)
   before calling. */

#define _FILE_OFFSET_BITS 64
#include <errno.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/bigarray.h>

#define COPY_BUFFER (1 << 16)

typedef struct { intnat off, len; } span;

static int by_offset(const void *a, const void *b)
{
  intnat x = ((const span *) a)->off, y = ((const span *) b)->off;
  return (x > y) - (x < y);
}

/* Appends src[off, off + len) to dst; 0, or the errno of the failure. */
static int copy_run(int src, int dst, intnat off, intnat len, char *buf)
{
  while (len > 0) {
    size_t want = len < COPY_BUFFER ? (size_t) len : COPY_BUFFER;
    ssize_t got = pread(src, buf, want, (off_t) off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (got == 0) return EIO; /* the source is shorter than its records */
    for (ssize_t done = 0; done < got;) {
      ssize_t put = write(dst, buf + done, (size_t) (got - done));
      if (put < 0) {
        if (errno == EINTR) continue;
        return errno;
      }
      done += put;
    }
    off += got;
    len -= got;
  }
  return 0;
}

value dadu_journal_copy(value vsrc, value vdst, value vspans, value vcount,
                        value vsync)
{
  CAMLparam5(vsrc, vdst, vspans, vcount, vsync);
  int src = Int_val(vsrc), dst = Int_val(vdst), sync = Bool_val(vsync);
  intnat count = Long_val(vcount), kept = 0;
  span *spans = (span *) Caml_ba_data_val(vspans);
  int err = 0;
  char *buf = malloc(COPY_BUFFER);
  if (buf == NULL) caml_raise_out_of_memory();
  caml_enter_blocking_section();
  qsort(spans, (size_t) count, sizeof(span), by_offset);
  for (intnat i = 0; i < count; i++)
    if (kept == 0 || spans[i].off != spans[kept - 1].off) spans[kept++] = spans[i];
  for (intnat i = 0; i < kept && err == 0;) {
    /* one run of adjacent records */
    intnat start = spans[i].off, end = spans[i].off + spans[i].len;
    for (i++; i < kept && spans[i].off == end; i++) end += spans[i].len;
    err = copy_run(src, dst, start, end - start, buf);
  }
  if (err == 0 && sync && fsync(dst) != 0) err = errno;
  caml_leave_blocking_section();
  free(buf);
  if (err != 0) caml_raise_sys_error(caml_copy_string(strerror(err)));
  CAMLreturn(Val_long(kept));
}
