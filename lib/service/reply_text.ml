(* The stub writes at most 24 bytes from [off] unchecked: the bounds are
   checked here first.  It returns -1 for the values it leaves to the
   runtime. *)
external write_unchecked :
  bytes -> (int[@untagged]) -> (float[@unboxed]) -> (int[@untagged])
  = "dadu_g17_write_byte" "dadu_g17_write"
[@@noalloc]

(* the conversion behind Printf's "%.17g" *)
external format_float : string -> float -> string = "caml_format_float"

(* 24 bytes is the widest "%.17g" text, -2.2250738585072014e-308 *)
let scratch_bytes = 32

let check_room b off =
  if off < 0 || off > Bytes.length b - scratch_bytes then
    invalid_arg "Reply_text.write_float: fewer than 32 bytes from the offset"

let runtime b off x =
  let s = format_float "%.17g" x in
  Bytes.blit_string s 0 b off (String.length s);
  String.length s

let write_float b off x =
  check_room b off;
  let n = write_unchecked b off x in
  if n >= 0 then n else runtime b off x

let add_float buf scratch x =
  Buffer.add_subbytes buf scratch 0 (write_float scratch 0 x)

(* the entries are passed to the stub unboxed, straight from the array *)
let add_floats buf scratch xs =
  check_room scratch 0;
  for i = 0 to Array.length xs - 1 do
    if i > 0 then Buffer.add_char buf ',';
    let n = write_unchecked scratch 0 (Array.unsafe_get xs i) in
    let n = if n >= 0 then n else runtime scratch 0 (Array.unsafe_get xs i) in
    Buffer.add_subbytes buf scratch 0 n
  done

let add_int buf v = Buffer.add_string buf (string_of_int v)
let add_bool buf v = Buffer.add_string buf (if v then "true" else "false")

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'
