(* Tests for the crash-safe session journal: encode/decode round-trips,
   typed recovery from torn tails, bit-flipped checksums and bad magic,
   and the open_-truncates-then-extends contract.  The QCheck property
   cuts a valid journal at every possible byte offset and checks that
   recovery always yields the longest valid record prefix plus a typed
   defect — never a crash, never a phantom record.

   The streaming reader is pinned against a whole-file reference
   decoder kept here (the decoder the journal had before it streamed):
   on damaged journals whose records straddle and outgrow the reader's
   buffer, [load] must return the same records and defect, and [open_]
   must cut the file to the same length.  The checksum stubs are pinned
   bit for bit against the byte-serial FNV-1a loop. *)

open Dadu_service
module J = Journal

let qcheck = QCheck_alcotest.to_alcotest

(* ---- helpers ---- *)

let with_tmp f =
  let path = Filename.temp_file "dadu_journal" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_records path records =
  Sys.remove path;
  match J.open_ path with
  | Error e -> Alcotest.fail (Format.asprintf "open_: %a" J.pp_load_error e)
  | Ok (t, replayed, defect) ->
    Alcotest.(check int) "fresh journal is empty" 0 (List.length replayed);
    Alcotest.(check bool) "fresh journal has no defect" true (defect = None);
    List.iter (J.append t) records;
    Alcotest.(check int) "appended count" (List.length records) (J.appended t);
    J.close t

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let sample_records =
  [
    J.Opened { session = "s1"; robot = "eval:12"; chain_fp = 0x1234; dof = 12 };
    J.Committed
      {
        session = "s1";
        ordinal = 0;
        theta = Some [| 0.1; -0.25; 1e-300; Float.pi |];
        reply = "{\"reply\":\"solved\",\"id\":1,\"ordinal\":0}";
      };
    J.Committed
      { session = "s1"; ordinal = 1; theta = None; reply = "{\"id\":2}" };
    J.Opened { session = "s2"; robot = "arm7"; chain_fp = -77; dof = 7 };
    J.Committed
      {
        session = "s2";
        ordinal = 0;
        theta = Some (Array.init 7 (fun i -> float_of_int i /. 7.));
        reply = String.make 300 'x';
      };
    J.Closed { session = "s1" };
  ]

let check_records name expect got =
  Alcotest.(check bool)
    name true
    (List.length expect = List.length got && List.for_all2 ( = ) expect got)

(* ---- round-trip ---- *)

let test_roundtrip () =
  with_tmp @@ fun path ->
  write_records path sample_records;
  match J.load path with
  | Error e -> Alcotest.fail (Format.asprintf "load: %a" J.pp_load_error e)
  | Ok (records, defect) ->
    Alcotest.(check bool) "no defect" true (defect = None);
    check_records "records round-trip" sample_records records

(* A batch staged and written at once is byte for byte the records
   appended one by one, and a staging buffer is reused across batches
   (the dispatcher's group commit). *)
let test_staged_equals_appended () =
  with_tmp @@ fun appended_path ->
  write_records appended_path sample_records;
  with_tmp @@ fun staged_path ->
  Sys.remove staged_path;
  match J.open_ staged_path with
  | Error e -> Alcotest.fail (Format.asprintf "open_: %a" J.pp_load_error e)
  | Ok (t, _, _) ->
    let staging = J.staging () in
    J.write_staged t staging;
    Alcotest.(check int) "an empty staging writes nothing" 0 (J.appended t);
    let first, second = List.partition (fun r -> r <> J.Closed { session = "s1" }) sample_records in
    List.iter (J.stage staging) first;
    J.write_staged t staging;
    List.iter (J.stage staging) second;
    J.write_staged t staging;
    Alcotest.(check int) "appended count" (List.length sample_records) (J.appended t);
    J.close t;
    Alcotest.(check string) "same bytes" (read_file appended_path) (read_file staged_path)

(* ---- torn tail ---- *)

let test_truncated_tail () =
  with_tmp @@ fun path ->
  write_records path sample_records;
  let bytes = read_file path in
  (* cut the last 5 bytes: the final record's checksum is torn *)
  write_file path (String.sub bytes 0 (String.length bytes - 5));
  match J.load path with
  | Error e -> Alcotest.fail (Format.asprintf "load: %a" J.pp_load_error e)
  | Ok (records, defect) ->
    Alcotest.(check bool) "typed Truncated" true (defect = Some J.Truncated);
    check_records "valid prefix recovered"
      (List.filteri (fun i _ -> i < List.length sample_records - 1)
         sample_records)
      records

let test_checksum_flip () =
  with_tmp @@ fun path ->
  write_records path sample_records;
  let bytes = Bytes.of_string (read_file path) in
  (* flip one bit in the last record's payload *)
  let off = Bytes.length bytes - 12 in
  Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 0x10));
  write_file path (Bytes.to_string bytes);
  match J.load path with
  | Error e -> Alcotest.fail (Format.asprintf "load: %a" J.pp_load_error e)
  | Ok (records, defect) ->
    Alcotest.(check bool) "typed Checksum_mismatch" true
      (defect = Some J.Checksum_mismatch);
    Alcotest.(check int) "prefix stops before the flipped record"
      (List.length sample_records - 1)
      (List.length records)

let test_bad_magic () =
  with_tmp @@ fun path ->
  write_records path sample_records;
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes 0 'X';
  write_file path (Bytes.to_string bytes);
  match J.load path with
  | Error J.Bad_magic -> ()
  | Error e ->
    Alcotest.fail (Format.asprintf "expected Bad_magic, got %a" J.pp_load_error e)
  | Ok _ -> Alcotest.fail "expected Bad_magic, got Ok"

(* ---- open_ truncates the tail and extends cleanly ---- *)

let test_open_truncates_and_extends () =
  with_tmp @@ fun path ->
  write_records path sample_records;
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  (match J.open_ path with
  | Error e -> Alcotest.fail (Format.asprintf "open_: %a" J.pp_load_error e)
  | Ok (t, records, defect) ->
    Alcotest.(check bool) "defect surfaced" true (defect = Some J.Truncated);
    Alcotest.(check int) "prefix replayed"
      (List.length sample_records - 1)
      (List.length records);
    (* the torn tail was cut off: a fresh append must leave a journal
       that loads clean end to end *)
    J.append t (J.Closed { session = "s2" });
    J.close t);
  match J.load path with
  | Error e -> Alcotest.fail (Format.asprintf "reload: %a" J.pp_load_error e)
  | Ok (records, defect) ->
    Alcotest.(check bool) "clean after repair + append" true (defect = None);
    check_records "repaired journal holds prefix + new record"
      (List.filteri (fun i _ -> i < List.length sample_records - 1)
         sample_records
      @ [ J.Closed { session = "s2" } ])
      records

(* ---- property: any byte-level cut recovers a typed valid prefix ---- *)

let record_gen =
  let open QCheck.Gen in
  let session = oneofl [ "a"; "bb"; "sess-3" ] in
  let str = string_size ~gen:printable (int_range 0 40) in
  oneof
    [
      (let* s = session and* r = oneofl [ "eval:12"; "arm7"; "scara" ]
       and* fp = int and* dof = int_range 0 64 in
       return (J.Opened { session = s; robot = r; chain_fp = fp; dof }));
      (let* s = session and* ordinal = int_range 0 1000 and* reply = str
       and* theta =
         oneof
           [
             return None;
             (let* n = int_range 0 12 in
              let* xs = list_repeat n (float_range (-4.) 4.) in
              return (Some (Array.of_list xs)));
           ]
       in
       return (J.Committed { session = s; ordinal; theta; reply }));
      (let* s = session in
       return (J.Closed { session = s }));
    ]

let arbitrary_cut =
  QCheck.Test.make ~name:"every byte-level cut yields a typed valid prefix"
    ~count:200
    QCheck.(
      make
        Gen.(
          let* records = list_size (int_range 1 8) record_gen in
          let* cut_frac = float_range 0. 1. in
          return (records, cut_frac)))
    (fun (records, cut_frac) ->
      with_tmp @@ fun path ->
      write_records path records;
      let bytes = read_file path in
      let cut =
        int_of_float (cut_frac *. float_of_int (String.length bytes))
      in
      write_file path (String.sub bytes 0 cut);
      match J.load path with
      | Error (J.Io _ | J.Bad_magic | J.Unsupported_version _ | J.Truncated) ->
        (* cuts inside the header are file-level defects *)
        cut < 12
      | Error (J.Checksum_mismatch | J.Malformed _) -> false
      | Ok (prefix, defect) ->
        let n = List.length prefix in
        n <= List.length records
        && List.for_all2 ( = ) prefix
             (List.filteri (fun i _ -> i < n) records)
        (* an uncut journal must decode fully and cleanly; a cut one may
           end exactly on a record boundary (defect None, short prefix)
           or inside a record (typed defect) — phantom records never *)
        && (cut < String.length bytes
           || (defect = None && n = List.length records)))

(* ---- reference: the whole-file decoder ---- *)

(* The byte-serial FNV-1a the stubs must reproduce bit for bit. *)
let fnv1a_ref b off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  !h

exception Ref_defect of J.load_error

(* Decodes the whole file at once: every record in file order, length
   header, then checksum, then payload, stopping at the first defect.
   Returns the records, the valid length and the defect, or a
   file-level error. *)
let reference_load (s : string) =
  let b = Bytes.of_string s in
  let total = Bytes.length b in
  let header_len = 12 in
  let max_record_bytes = 4 + (1 lsl 24) + (8 * (1 lsl 16)) + (3 * (1 lsl 16)) in
  if total < header_len then Error J.Truncated
  else if Bytes.sub_string b 0 8 <> "DADUJRNL" then Error J.Bad_magic
  else
    let v = Int32.to_int (Bytes.get_int32_le b 8) in
    if v <> 1 then Error (J.Unsupported_version v)
    else begin
      let decode off len =
        let pos = ref off and stop = off + len in
        let need n =
          if !pos + n > stop then raise (Ref_defect (J.Malformed "short field"))
        in
        let u8 () = need 1; let v = Char.code (Bytes.get b !pos) in incr pos; v in
        let u32 () =
          need 4;
          let v = Int32.to_int (Bytes.get_int32_le b !pos) in
          pos := !pos + 4;
          if v < 0 then raise (Ref_defect (J.Malformed "negative length field"));
          v
        in
        let i64 () = need 8; let v = Bytes.get_int64_le b !pos in pos := !pos + 8; v in
        let str what cap =
          let n = u32 () in
          if n > cap then
            raise (Ref_defect (J.Malformed (Printf.sprintf "%s too long (%d)" what n)));
          need n;
          let s = Bytes.sub_string b !pos n in
          pos := !pos + n;
          s
        in
        let r =
          match u8 () with
          | 1 ->
            let session = str "session name" (1 lsl 16) in
            let robot = str "robot spec" (1 lsl 16) in
            let chain_fp = Int64.to_int (i64 ()) in
            let dof = u32 () in
            if dof > 1 lsl 16 then raise (Ref_defect (J.Malformed "dof out of range"));
            J.Opened { session; robot; chain_fp; dof }
          | 2 ->
            let session = str "session name" (1 lsl 16) in
            let ordinal = u32 () in
            let theta =
              match u8 () with
              | 0 -> None
              | 1 ->
                let dof = u32 () in
                if dof > 1 lsl 16 then
                  raise (Ref_defect (J.Malformed "dof out of range"));
                Some (Array.init dof (fun _ -> Int64.float_of_bits (i64 ())))
              | _ -> raise (Ref_defect (J.Malformed "bad theta presence flag"))
            in
            let reply = str "reply payload" (1 lsl 24) in
            J.Committed { session; ordinal; theta; reply }
          | 3 -> J.Closed { session = str "session name" (1 lsl 16) }
          | tag ->
            raise (Ref_defect (J.Malformed (Printf.sprintf "unknown record tag %d" tag)))
        in
        if !pos <> stop then raise (Ref_defect (J.Malformed "trailing record bytes"));
        r
      in
      let records = ref [] and pos = ref header_len and defect = ref None in
      (try
         while !pos < total do
           let start = !pos in
           if start + 4 > total then raise (Ref_defect J.Truncated);
           let n = Int32.to_int (Bytes.get_int32_le b start) in
           if n <= 0 || n > max_record_bytes then
             raise (Ref_defect (J.Malformed (Printf.sprintf "record length %d" n)));
           if start + 4 + n + 8 > total then raise (Ref_defect J.Truncated);
           if not (Int64.equal (fnv1a_ref b (start + 4) n)
                     (Bytes.get_int64_le b (start + 4 + n)))
           then raise (Ref_defect J.Checksum_mismatch);
           records := decode (start + 4) n :: !records;
           pos := start + 4 + n + 8
         done
       with Ref_defect e -> defect := Some e);
      Ok (List.rev !records, !pos, !defect)
    end

(* ---- property: the streaming reader matches the reference ---- *)

(* Replies from empty to ~3 MB, so that records straddle the reader's
   1 MiB buffer and some outgrow it; bulky content is a cheap function
   of a seed. *)
let big_record_gen =
  let open QCheck.Gen in
  let* len =
    frequency
      [
        (5, int_range 0 300);
        (2, int_range 1_000 400_000);
        (1, int_range 900_000 3_000_000);
      ]
  and* seed = int_bound 255 and* ordinal = int_range 0 100_000
  and* session = oneofl [ "a"; "bb"; "sess-3" ]
  and* theta =
    oneof [ return None; map (fun n -> Some (Array.init n (fun i -> float_of_int i /. 7.))) (int_range 0 40) ]
  in
  let reply = String.init len (fun i -> Char.chr ((seed + (i * 131)) land 0xff)) in
  frequency
    [
      (4, return (J.Committed { session; ordinal; theta; reply }));
      (1, return (J.Opened { session; robot = "eval:12"; chain_fp = seed; dof = 12 }));
      (1, return (J.Closed { session }));
    ]

type damage =
  | Intact
  | Flip_length of int * int (* record index, bit *)
  | Flip_payload of int * float * int (* record index, position, bit *)
  | Flip_checksum of int * int (* record index, bit *)
  | Garbage_tail of string
  | Cut of float (* fraction of the file kept *)

let damage_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, return Intact);
      (2, map2 (fun r b -> Flip_length (r, b)) nat (int_bound 31));
      (2, map3 (fun r f b -> Flip_payload (r, f, b)) nat (float_bound_exclusive 1.) (int_bound 7));
      (2, map2 (fun r b -> Flip_checksum (r, b)) nat (int_bound 63));
      ( 2,
        map (fun s -> Garbage_tail s)
          (oneof
             [
               string_size ~gen:char (int_range 1 40);
               (* a length header promising more than the file holds *)
               map (fun n ->
                   let b = Bytes.create 4 in
                   Bytes.set_int32_le b 0 (Int32.of_int n);
                   Bytes.to_string b ^ "xyz")
                 (int_range 1 5_000_000);
             ]) );
      (3, map (fun f -> Cut f) (float_bound_inclusive 1.));
    ]

(* byte offsets of each record in an intact journal *)
let record_offsets s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let n = Int32.to_int (String.get_int32_le s pos) in
      go (pos + 4 + n + 8) ((pos, n) :: acc)
  in
  Array.of_list (go 12 [])

let apply_damage s = function
  | Intact -> s
  | Garbage_tail g -> s ^ g
  | Cut f -> String.sub s 0 (int_of_float (f *. float_of_int (String.length s)))
  | (Flip_length _ | Flip_payload _ | Flip_checksum _) as d ->
    let offsets = record_offsets s in
    let b = Bytes.of_string s in
    let flip pos bit =
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)))
    in
    let pick r = offsets.(r mod Array.length offsets) in
    (match d with
    | Flip_length (r, bit) ->
      let pos, _ = pick r in
      flip (pos + (bit / 8)) (bit mod 8)
    | Flip_payload (r, f, bit) ->
      let pos, n = pick r in
      flip (pos + 4 + int_of_float (f *. float_of_int n)) bit
    | Flip_checksum (r, bit) ->
      let pos, n = pick r in
      flip (pos + 4 + n + (bit / 8)) (bit mod 8)
    | Intact | Garbage_tail _ | Cut _ -> ());
    Bytes.to_string b

let same_records a b = List.length a = List.length b && compare a b = 0

let streaming_matches_reference =
  QCheck.Test.make
    ~name:"streaming load and open_ match the whole-file decoder" ~count:60
    QCheck.(
      make
        ~print:(fun (records, _) ->
          Printf.sprintf "%d records" (List.length records))
        Gen.(pair (list_size (int_range 1 12) big_record_gen) damage_gen))
    (fun (records, damage) ->
      with_tmp @@ fun path ->
      write_records path records;
      let bytes = apply_damage (read_file path) damage in
      write_file path bytes;
      let reference = reference_load bytes in
      let loaded = J.load path in
      let load_ok =
        match (reference, loaded) with
        | Ok (expect, _, defect), Ok (got, got_defect) ->
          same_records expect got && defect = got_defect
        | Error e, Error got -> e = got
        | _ -> false
      in
      let opened =
        match J.open_ path with
        | Ok (t, got, got_defect) ->
          J.close t;
          Ok (got, got_defect, String.length (read_file path))
        | Error e -> Error e
      in
      let open_ok =
        match (reference, opened) with
        | _, Ok (got, None, 12) when bytes = "" -> got = []
        | Ok (expect, valid_len, defect), Ok (got, got_defect, len) ->
          same_records expect got && defect = got_defect && len = valid_len
        | Error e, Error got -> e = got && read_file path = bytes
        | _ -> false
      in
      load_ok && open_ok)

(* ---- the checksum stubs against the byte-serial loop ---- *)

(* 0-9 spans of unequal lengths (0 included) at unaligned offsets, each
   followed by its reference checksum: [verify] must accept all of them
   and name exactly the span whose stored checksum is disturbed, and
   [seal] must write the reference value. *)
let stubs_match_reference =
  QCheck.Test.make ~name:"verify and seal match the serial FNV-1a" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 9)
            (triple (int_range 0 7)
               (frequency [ (1, return 0); (4, int_range 1 40); (2, int_range 41 700) ])
               (int_bound 1_000_000))))
    (fun layout ->
      let size = List.fold_left (fun a (gap, len, _) -> a + gap + len + 8) 0 layout in
      let b = Bytes.make (size + 5) '\x5a' in
      let count = List.length layout in
      let spans = Array.make (2 * count) 0 in
      ignore
        (List.fold_left
           (fun (i, pos) (gap, len, seed) ->
             let off = pos + gap in
             for k = 0 to len - 1 do
               Bytes.set b (off + k) (Char.chr ((seed + (k * 7919) + (k * k)) land 0xff))
             done;
             Bytes.set_int64_le b (off + len) (fnv1a_ref b off len);
             spans.(2 * i) <- off;
             spans.((2 * i) + 1) <- len;
             (i + 1, off + len + 8))
           (0, 0) layout);
      let flip pos = Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40)) in
      let all_pass = Checksum.verify b ~spans ~count = count in
      let each_named =
        List.for_all
          (fun i ->
            let sum = spans.(2 * i) + spans.((2 * i) + 1) + (i mod 8) in
            flip sum;
            let got = Checksum.verify b ~spans ~count in
            flip sum;
            got = i)
          (List.init count Fun.id)
      in
      let sealed =
        List.for_all
          (fun i ->
            let off = spans.(2 * i) and len = spans.((2 * i) + 1) in
            let expect = Bytes.get_int64_le b (off + len) in
            Bytes.fill b (off + len) 8 '\000';
            Checksum.seal b ~off ~len;
            Int64.equal (Bytes.get_int64_le b (off + len)) expect)
          (List.init count Fun.id)
      in
      all_pass && each_named && sealed)

let test_stub_bounds () =
  let b = Bytes.make 20 'x' in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "checksum past the end" true
    (raises (fun () -> Checksum.verify b ~spans:[| 4; 9 |] ~count:1));
  Alcotest.(check bool) "negative offset" true
    (raises (fun () -> Checksum.verify b ~spans:[| -1; 2 |] ~count:1));
  Alcotest.(check bool) "count beyond spans" true
    (raises (fun () -> Checksum.verify b ~spans:[| 0; 2 |] ~count:2));
  Alcotest.(check bool) "seal past the end" true
    (raises (fun () -> Checksum.seal b ~off:13 ~len:0));
  Alcotest.(check bool) "huge length" true
    (raises (fun () -> Checksum.seal b ~off:2 ~len:max_int));
  Checksum.seal b ~off:2 ~len:10;
  Alcotest.(check int) "a span ending at the buffer's end" 1
    (Checksum.verify b ~spans:[| 2; 10 |] ~count:1)

let () =
  Alcotest.run "dadu_journal"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "encode -> load is identical" `Quick test_roundtrip;
          Alcotest.test_case "staged batches = one append per record" `Quick
            test_staged_equals_appended;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail" `Quick test_truncated_tail;
          Alcotest.test_case "bit-flipped checksum" `Quick test_checksum_flip;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "open_ truncates and extends" `Quick
            test_open_truncates_and_extends;
          qcheck arbitrary_cut;
          qcheck streaming_matches_reference;
        ] );
      ( "checksum",
        [
          qcheck stubs_match_reference;
          Alcotest.test_case "bounds" `Quick test_stub_bounds;
        ] );
    ]
