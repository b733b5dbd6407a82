(* Every external of the library's C stubs, run once on fixed inputs,
   printing the IEEE bits (or bytes) of what each one writes.

   A stub with untagged or unboxed arguments, or with more than five,
   has a separate bytecode entry point that unpacks its arguments (from
   an [argv] array past five); native code never calls it.  This program
   is built both native and as bytecode (test/dune), and
   test/cram/stubs_byte.t checks that the two print the same bytes, so a
   bytecode entry that reads the wrong argument fails a test.  For each
   stub, at least one call has pairwise distinct integer and float
   arguments, so a swapped pair changes the output. *)

open Dadu_kinematics
module Checksum = Dadu_service.Checksum
module Reply_text = Dadu_service.Reply_text

let floats name xs =
  Printf.printf "%s:" name;
  Array.iter (fun x -> Printf.printf " %Lx" (Int64.bits_of_float x)) xs;
  print_newline ()

(* Five links, two of them prismatic, with an affine base and tool that
   are not rotations: every branch of every fold runs. *)
let chain =
  let link i joint a alpha d theta =
    { Chain.name = Printf.sprintf "j%d" i; joint; dh = Dh.make ~a ~alpha ~d ~theta () }
  in
  let rev = Joint.revolute () and pri = Joint.prismatic () in
  let affine shift =
    Array.init 16 (fun i ->
        if i >= 12 then if i = 15 then 1. else 0.
        else shift +. (0.1 *. float_of_int ((i * 7) mod 11)))
  in
  Chain.make ~base:(affine 0.3) ~tool:(affine (-0.2))
    [|
      link 1 rev 0.4 0.3 0.1 0.2;
      link 2 pri 0.0 (-1.1) 0.2 0.5;
      link 3 rev 0.35 1.4 0.0 (-0.7);
      link 4 rev 0.0 0.0 0.05 1.9;
      link 5 pri 0.25 0.6 (-0.1) 0.0;
    |]

let dof = Chain.dof chain

let theta = Array.init dof (fun i -> 0.3 +. (0.17 *. float_of_int i))

let dtheta = Array.init dof (fun i -> 0.05 -. (0.021 *. float_of_int i))

let () =
  let scratch = Fk.make_scratch () in
  (* the exact candidate fold, links form: 20 candidates, range [3, 17) *)
  let stride = 20 in
  let coeffs = Array.init stride (fun k -> 0.1 *. float_of_int (k + 1)) in
  let pos = Array.make (3 * stride) 0.5 and err2 = Array.make stride 0.5 in
  Fk.speculate_range_into ~scratch ~pos ~err2 ~tx:0.7 ~ty:(-0.4) ~tz:1.3 chain
    ~theta ~dtheta ~coeffs ~stride ~lo:3 ~hi:17;
  floats "speculate_range_into pos" pos;
  floats "speculate_range_into err2" err2;
  let dst = Array.make (3 * stride) 0.5 in
  Fk.positions_many_into ~scratch ~dst chain ~theta ~dtheta ~coeffs
    ~count:stride;
  floats "positions_many_into" dst;
  (* the exact candidate fold, rows form: rows wider than the chain *)
  let tstride = dof + 2 and stride = 13 in
  let thetas =
    Array.init (stride * tstride) (fun i -> 0.01 *. float_of_int (i * 13 mod 97))
  in
  let target c = Array.init stride (fun k -> c +. (0.03 *. float_of_int k)) in
  let pos = Array.make (3 * stride) 0.5 and err2 = Array.make stride 0.5 in
  Fk.score_rows_into ~scratch ~pos ~err2 ~txs:(target 0.2) ~tys:(target (-0.6))
    ~tzs:(target 0.9) chain ~thetas ~tstride ~stride ~lo:2 ~hi:11;
  floats "score_rows_into pos" pos;
  floats "score_rows_into err2" err2;
  (* the filtered sweep, on each of its paths: a fast-path winner folded
     by angle addition over a Uniform ladder of 20 candidates (blocks of
     8, 8 and 4), a re-score (every candidate has a twin) and a declined
     sweep *)
  let stride = 24 in
  let ladder = Array.init stride (fun k -> 0.05 *. float_of_int (k + 1)) in
  let twins = Array.init stride (fun k -> ladder.(k / 2)) in
  (* the target is the end of the step twins.(10) = twins.(11) takes *)
  let t = Array.make 3 0. in
  Fk.positions_many_into ~scratch ~dst:t chain ~theta ~dtheta
    ~coeffs:[| twins.(10) |] ~count:1;
  List.iter
    (fun (path, theta, coeffs) ->
      let pos = Array.make (3 * stride) 0.5 and err2 = Array.make stride 0.5 in
      let w =
        Fk.speculate_argmin ~scratch ~pos ~err2 ~tx:t.(0) ~ty:t.(1) ~tz:t.(2)
          chain ~theta ~dtheta ~coeffs ~stride ~lo:1 ~hi:21
      in
      Printf.printf "speculate_argmin %s: winner %d\n" path w;
      floats ("speculate_argmin " ^ path ^ " pos") pos;
      floats ("speculate_argmin " ^ path ^ " err2") err2)
    [
      ("fast", theta, ladder);
      ("re-score", theta, twins);
      ("declined", Array.map (fun q -> q +. 3e6) theta, ladder);
    ];
  (* a fast-path winner over a ladder of 21 candidates (blocks of 8, 8
     and 5) on revolute links with zero twist and zero θ₀: cos 0 and
     sin 0 are exact in any libm, so these bits come from IEEE
     arithmetic alone and are the same on every host and clone *)
  let planar =
    let link i a d =
      { Chain.name = Printf.sprintf "p%d" i; joint = Joint.revolute ();
        dh = Dh.make ~a ~d () }
    in
    let tool = Array.init 16 (fun i -> if i mod 5 = 0 then 1. else 0.) in
    tool.(3) <- 0.125;
    tool.(11) <- -0.0625;
    Chain.make ~tool
      [| link 1 0.5 0.1; link 2 0.375 0.; link 3 0.25 (-0.05); link 4 0.3 0. |]
  in
  let stride = 24 in
  let q = [| 0.3; -1.2; 2.1; 0.7 |] and dq = [| 0.11; -0.07; 0.05; 0.09 |] in
  let ladder = Array.init stride (fun k -> float_of_int (k + 1) /. 24. *. 0.5) in
  let pos = Array.make (3 * stride) 0.5 and err2 = Array.make stride 0.5 in
  let w =
    Fk.speculate_argmin ~scratch ~pos ~err2 ~tx:0.63125 ~ty:0.50375 ~tz:0.
      planar ~theta:q ~dtheta:dq ~coeffs:ladder ~stride ~lo:2 ~hi:23
  in
  Printf.printf "ladder bits: winner %d\n" w;
  floats "ladder bits pos" pos;
  floats "ladder bits err2" err2;
  let c = Fk.filter_counts scratch in
  Printf.printf
    "filter counts: %d sweeps, %d ladders, %d re-scores, %d declined\n"
    c.Fk.sweeps c.Fk.ladders c.Fk.rescores c.Fk.declined;
  (* the frames pass *)
  let frames = Array.init (dof + 1) (fun _ -> Array.make 16 0.5) in
  Fk.frames_into ~scratch ~dst:frames chain theta;
  Array.iteri (fun i m -> floats (Printf.sprintf "frames_into %d" i) m) frames;
  (* the inlined sincos *)
  let x = [| 0.; -0.; 1e-9; 0.7853981633974483; -2.5; 1000.25; 1048575.5 |] in
  let s = Array.make (Array.length x) 0. and co = Array.make (Array.length x) 0. in
  Fk.fast_sincos_into ~x ~sin:s ~cos:co;
  floats "fast_sincos sin" s;
  floats "fast_sincos cos" co;
  ignore (Fk.sweep_isa ())

let () =
  (* FNV-1a: seal three spans at different offsets, then verify them,
     once intact and once with the second span damaged *)
  let b = Bytes.init 96 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let spans = [| 1; 9; 20; 30; 60; 17 |] in
  for i = 0 to 2 do
    Checksum.seal b ~off:spans.(2 * i) ~len:spans.((2 * i) + 1)
  done;
  Printf.printf "sealed: %s\n" (Bytes.to_string b |> String.to_seq
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat "");
  Printf.printf "verify: %d\n" (Checksum.verify b ~spans ~count:3);
  Bytes.set b 25 'x';
  Printf.printf "verify damaged: %d\n" (Checksum.verify b ~spans ~count:3);
  Printf.printf "verify first two: %d of 2\n" (Checksum.verify b ~spans ~count:2)

let () =
  (* the %.17g writer, at an offset into its scratch *)
  let b = Bytes.make 48 '#' in
  List.iter
    (fun x ->
      let n = Reply_text.write_float b 7 x in
      Printf.printf "write_float %Lx: %s\n" (Int64.bits_of_float x)
        (Bytes.sub_string b 7 n))
    [ 0.; -0.; 1.5; -3.0000000000000004; 0.1; 123456789.125; 1e-5; 6.02e23 ]

let () =
  (* the reply slab: a 3-byte slot, then a 19-byte one whose regrid moves
     the first from offset 9 (3-byte slots) to 63 (21-byte slots), each
     read back from its offset, then the block released *)
  let module Slab = Dadu_service.Slab in
  let t = Slab.create ~slots:5 in
  Slab.set t 3 "abc";
  Slab.set t 1 "the quick brown fox";
  Printf.printf "slab: %d-byte slots, 1 %S, 3 %S, 0 %S\n" (Slab.slot_cap t)
    (Slab.get t 1) (Slab.get t 3) (Slab.get t 0);
  Slab.release t;
  Slab.set t 2 "after release";
  Printf.printf "slab released: %b, 1 %S, 2 %S\n" (Slab.released t)
    (Slab.get t 1) (Slab.get t 2)
