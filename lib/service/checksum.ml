(* The stubs read [b] and [spans] unchecked: every span and its stored
   checksum is bounds-checked here first. *)
external verify_unchecked :
  bytes -> int array -> (int[@untagged]) -> (int[@untagged])
  = "dadu_fnv1a_verify_byte" "dadu_fnv1a_verify"
[@@noalloc]

external seal_unchecked :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "dadu_fnv1a_seal_byte" "dadu_fnv1a_seal"
[@@noalloc]

(* the span and the 8 checksum bytes after it lie inside [b]; written so
   that no sum can overflow *)
let fits b off len =
  off >= 0 && len >= 0 && off <= Bytes.length b
  && len <= Bytes.length b - off - 8

let seal b ~off ~len =
  if not (fits b off len) then invalid_arg "Checksum.seal: span outside the buffer";
  seal_unchecked b off len

let verify b ~spans ~count =
  if count < 0 || count > Array.length spans / 2 then
    invalid_arg "Checksum.verify: count out of range";
  for i = 0 to count - 1 do
    if not (fits b spans.(2 * i) spans.((2 * i) + 1)) then
      invalid_arg "Checksum.verify: span outside the buffer"
  done;
  verify_unchecked b spans count
