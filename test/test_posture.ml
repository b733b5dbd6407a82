(* Differential and property tests for the posture library and the
   multi-seed speculative start selector: exact NN lookup vs a brute-force
   oracle, bit-identical persistence round trips, typed rejection of
   damaged files, and the seed-selection winner pinned bitwise against a
   serial per-candidate oracle. *)

open Dadu_linalg
open Dadu_kinematics
open Dadu_core
open Dadu_service
module Rng = Dadu_util.Rng

let qcheck = QCheck_alcotest.to_alcotest

let bits = Int64.bits_of_float

let vec_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b

(* a family of chains spanning the paper's 3..100-DOF range, with both
   revolute-only and mixed-joint members *)
let chain_of_case ~kind ~dof =
  match kind mod 3 with
  | 0 -> Robots.eval_chain ~dof
  | 1 -> Robots.snake ~dof
  | _ -> Robots.planar ~dof ~reach:(float_of_int dof) ()

(* ---- nearest neighbour vs brute force ---- *)

let brute_force_nearest lib ~x ~y ~z =
  let best = ref (-1) and best_d2 = ref infinity in
  for i = 0 to Posture_library.size lib - 1 do
    let p = Posture_library.position lib i in
    let dx = p.Vec3.x -. x and dy = p.Vec3.y -. y and dz = p.Vec3.z -. z in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if d2 < !best_d2 then begin
      best := i;
      best_d2 := d2
    end
  done;
  !best

let test_nn_matches_brute_force =
  QCheck.Test.make ~name:"grid NN == brute-force argmin (3..100 DOF)"
    ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 3 100))
    (fun (seed, dof) ->
      let chain = chain_of_case ~kind:seed ~dof in
      let lib =
        Posture_library.build ~chain ~count:(32 + (seed mod 97)) ~seed ()
      in
      let rng = Rng.create (seed + 1) in
      let reach = Chain.reach chain in
      let ok = ref true in
      for q = 0 to 49 do
        (* half in-workspace queries, half uniform over a generous box
           (far queries exercise the ring scan's early-out bound) *)
        let x, y, z =
          if q mod 2 = 0 then begin
            let t = Target.reachable rng chain in
            (t.Vec3.x, t.Vec3.y, t.Vec3.z)
          end
          else
            ( Rng.uniform rng (-2. *. reach) (2. *. reach),
              Rng.uniform rng (-2. *. reach) (2. *. reach),
              Rng.uniform rng (-2. *. reach) (2. *. reach) )
        in
        if
          Posture_library.nearest_index lib ~x ~y ~z
          <> brute_force_nearest lib ~x ~y ~z
        then ok := false
      done;
      !ok)

let test_nn_edge_cases () =
  let chain = Robots.eval_chain ~dof:6 in
  let lib = Posture_library.build ~chain ~count:1 ~seed:3 () in
  Alcotest.(check int) "single posture always nearest" 0
    (Posture_library.nearest_index lib ~x:100. ~y:(-50.) ~z:3.);
  Alcotest.(check int) "non-finite query misses" (-1)
    (Posture_library.nearest_index lib ~x:Float.nan ~y:0. ~z:0.);
  Alcotest.(check bool) "non-finite nearest is None" true
    (Posture_library.nearest lib (Vec3.make Float.infinity 0. 0.) = None);
  Alcotest.check_raises "zero count rejected"
    (Invalid_argument "Posture_library.build: count must be positive")
    (fun () -> ignore (Posture_library.build ~chain ~count:0 ~seed:1 ()))

let test_build_deterministic () =
  let chain = Robots.snake ~dof:30 in
  let a = Posture_library.build ~chain ~count:64 ~seed:11 () in
  let b = Posture_library.build ~chain ~count:64 ~seed:11 () in
  Alcotest.(check bool) "same (chain, count, seed) => same postures" true
    (Array.for_all2 vec_bits_equal
       (Array.init 64 (Posture_library.posture a))
       (Array.init 64 (Posture_library.posture b)));
  let c = Posture_library.build ~chain ~count:64 ~seed:12 () in
  Alcotest.(check bool) "different seed => different postures" false
    (vec_bits_equal (Posture_library.posture a 0) (Posture_library.posture c 0))

(* ---- chain fingerprints ---- *)

let test_fingerprint_identity () =
  let a = Robots.eval_chain ~dof:12 in
  let b = Robots.snake ~dof:12 in
  Alcotest.(check bool) "equal-DOF robots fingerprint differently" true
    (Chain.fingerprint a <> Chain.fingerprint b);
  Alcotest.(check int) "fingerprint is a pure function of the chain"
    (Chain.fingerprint a)
    (Chain.fingerprint (Robots.eval_chain ~dof:12));
  let renamed =
    Chain.make ~name:"other-name" ~base:(Chain.base a) ~tool:(Chain.tool a)
      (Chain.links a)
  in
  Alcotest.(check int) "name excluded (structural identity)"
    (Chain.fingerprint a) (Chain.fingerprint renamed);
  let lib = Posture_library.build ~chain:a ~count:8 ~seed:1 () in
  Alcotest.(check bool) "library matches its own chain" true
    (Posture_library.matches lib a);
  Alcotest.(check bool) "library refuses an equal-DOF stranger" false
    (Posture_library.matches lib b)

(* The fingerprint as it was first specified: FNV-1a over boxed Int64,
   one byte at a time.  Journals and posture library files store this
   value, so the field [Chain.make] computes must equal it bit for bit. *)
let reference_fingerprint chain =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let mix_int64 x =
    for shift = 0 to 7 do
      let byte = Int64.to_int (Int64.shift_right_logical x (shift * 8)) land 0xff in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
    done
  in
  let mix_float x = mix_int64 (Int64.bits_of_float x) in
  let mix_int i = mix_int64 (Int64.of_int i) in
  mix_int (Chain.dof chain);
  Array.iter
    (fun { Chain.joint; dh; _ } ->
      (match joint.Joint.kind with
      | Joint.Revolute -> mix_int 1
      | Joint.Prismatic -> mix_int 2);
      mix_float joint.Joint.lower;
      mix_float joint.Joint.upper;
      mix_float dh.Dh.a;
      mix_float dh.Dh.alpha;
      mix_float dh.Dh.d;
      mix_float dh.Dh.theta)
    (Chain.links chain);
  Array.iter mix_float (Chain.base chain);
  Array.iter mix_float (Chain.tool chain);
  Int64.to_int !h land max_int

let check_reference what chain =
  Alcotest.(check int) (what ^ ": stored fingerprint = reference fold")
    (reference_fingerprint chain) (Chain.fingerprint chain)

let test_fingerprint_reference () =
  let rng = Rng.create 20 in
  for i = 1 to 40 do
    let dof = 1 + Rng.int rng 100 in
    check_reference (Printf.sprintf "random chain %d (%d DOF)" i dof)
      (Robots.random rng ~dof ~reach:(0.5 +. Rng.float rng 10.) ())
  done;
  List.iter
    (fun spec ->
      match Problem_file.robot_of_spec spec with
      | Error msg -> Alcotest.fail msg
      | Ok chain ->
        check_reference spec chain;
        (* a description-file round trip rebuilds the same geometry *)
        (match Chain_format.parse (Chain_format.to_string chain) with
        | Error msg -> Alcotest.fail msg
        | Ok copy ->
          check_reference (spec ^ " round trip") copy;
          Alcotest.(check int) (spec ^ ": round trip keeps the fingerprint")
            (Chain.fingerprint chain) (Chain.fingerprint copy)))
    [ "arm6"; "arm7"; "scara"; "snake:1"; "snake:100"; "eval:1"; "eval:30";
      "eval:100"; "planar:2"; "planar:64" ];
  (match
     Chain_format.parse
       "chain demo\nbase translate 0.1 -0.2 0.3\n\
        joint a revolute a=0.5 alpha=90deg limits=-170deg,170deg\n\
        joint b prismatic d=-0.25 limits=0,0.18\ntool translate 0 0 0.05\n"
   with
  | Error msg -> Alcotest.fail msg
  | Ok chain -> check_reference "described chain with base and tool" chain);
  (* journals and .plib files written before the fingerprint was stored
     carry this value for eval:30 *)
  Alcotest.(check int) "eval:30 golden fingerprint" 3201358522906459403
    (Chain.fingerprint (Robots.eval_chain ~dof:30))

(* ---- persistence ---- *)

let with_tmp f =
  let path = Filename.temp_file "posture" ".plib" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  f path

let lib_equal_bits a b =
  Posture_library.chain_name a = Posture_library.chain_name b
  && Posture_library.fingerprint a = Posture_library.fingerprint b
  && Posture_library.dof a = Posture_library.dof b
  && Posture_library.size a = Posture_library.size b
  && Int64.equal
       (bits (Posture_library.cell_size a))
       (bits (Posture_library.cell_size b))
  && Array.for_all2 vec_bits_equal
       (Array.init (Posture_library.size a) (Posture_library.posture a))
       (Array.init (Posture_library.size b) (Posture_library.posture b))

let test_roundtrip_bit_identity =
  QCheck.Test.make ~name:"save -> load is bit-identical" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 3 60))
    (fun (seed, dof) ->
      let chain = chain_of_case ~kind:seed ~dof in
      let lib =
        Posture_library.build ~chain ~count:(1 + (seed mod 40)) ~seed ()
      in
      with_tmp @@ fun path ->
      match Posture_library.save lib path with
      | Error _ -> false
      | Ok () ->
        (match Posture_library.load path with
        | Error _ -> false
        | Ok loaded ->
          lib_equal_bits lib loaded
          &&
          (* the rebuilt grid answers queries identically *)
          let rng = Rng.create seed in
          let ok = ref true in
          for _ = 1 to 20 do
            let t = Target.reachable rng chain in
            if
              Posture_library.nearest_index lib ~x:t.Vec3.x ~y:t.Vec3.y
                ~z:t.Vec3.z
              <> Posture_library.nearest_index loaded ~x:t.Vec3.x ~y:t.Vec3.y
                   ~z:t.Vec3.z
            then ok := false
          done;
          !ok))

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let damaged_error mutate =
  let chain = Robots.eval_chain ~dof:6 in
  let lib = Posture_library.build ~chain ~count:16 ~seed:5 () in
  with_tmp @@ fun path ->
  (match Posture_library.save lib path with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "save failed");
  let b = read_bytes path in
  write_bytes path (mutate b);
  match Posture_library.load path with
  | Ok _ -> Alcotest.fail "damaged file accepted"
  | Error e -> e

let check_error name expected actual =
  Alcotest.(check string)
    name
    (Format.asprintf "%a" Posture_library.pp_load_error expected)
    (Format.asprintf "%a" Posture_library.pp_load_error actual)

let test_load_typed_errors () =
  (match Posture_library.load "/nonexistent/posture.plib" with
  | Error (Posture_library.Io _) -> ()
  | Error e ->
    Alcotest.failf "expected Io, got %a" Posture_library.pp_load_error e
  | Ok _ -> Alcotest.fail "missing file loaded");
  check_error "bad magic" Posture_library.Bad_magic
    (damaged_error (fun b ->
         Bytes.set b 0 'X';
         b));
  check_error "unsupported version" (Posture_library.Unsupported_version 9)
    (damaged_error (fun b ->
         Bytes.set_int32_le b 8 9l;
         b));
  check_error "truncated" Posture_library.Truncated
    (damaged_error (fun b -> Bytes.sub b 0 (Bytes.length b - 7)));
  check_error "truncated to a stub" Posture_library.Truncated
    (damaged_error (fun b -> Bytes.sub b 0 5));
  check_error "corrupted payload" Posture_library.Checksum_mismatch
    (damaged_error (fun b ->
         let k = 80 in
         Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x40));
         b));
  check_error "trailing bytes" (Posture_library.Malformed "trailing bytes")
    (damaged_error (fun b -> Bytes.cat b (Bytes.make 1 '\000')))

(* ---- multi-seed winner vs serial oracle ---- *)

(* Score one candidate exactly as the selector does: the speculation
   kernel with a zero direction, squared end-effector distance. *)
let oracle_score chain ~tx ~ty ~tz theta =
  let dof = Chain.dof chain in
  let scratch = Fk.make_scratch ~dof () in
  let pos = Array.make 3 0. and err2 = Array.make 1 0. in
  Fk.speculate_range_into ~scratch ~pos ~err2 ~tx ~ty ~tz chain ~theta
    ~dtheta:(Array.make dof 0.) ~coeffs:[| 0. |] ~stride:1 ~lo:0 ~hi:1;
  err2.(0)

let clamp chain v = Chain.clamp_config chain v

(* The selector's candidate list, assembled independently: θ₀, session
   slot, library NN, zero, then perturbations of the best base (the
   documented (0x5eed, ordinal, slot) noise stream), truncated to
   [candidates]. *)
let oracle_candidates ~library ~session_seed ~candidates ~ordinal ~scale
    ~chain ~target ~theta0 =
  let dof = Chain.dof chain in
  let base = ref [] in
  let push src v = base := (src, clamp chain v) :: !base in
  push Seed_select.Theta0 theta0;
  (match session_seed with
  | Some s -> push Seed_select.Session s
  | None -> ());
  (match library with
  | Some lib when Posture_library.matches lib chain ->
    (match Posture_library.nearest lib target with
    | Some (p, _) -> push Seed_select.Library p
    | None -> ())
  | _ -> ());
  push Seed_select.Zero (Array.make dof 0.);
  let cands = Array.of_list (List.rev !base) in
  let cands =
    if Array.length cands > candidates then Array.sub cands 0 candidates
    else cands
  in
  let scores =
    Array.map
      (fun (_, v) ->
        oracle_score chain ~tx:target.Vec3.x ~ty:target.Vec3.y
          ~tz:target.Vec3.z v)
      cands
  in
  let best = ref 0 in
  Array.iteri (fun k s -> if s < scores.(!best) then best := k) scores;
  let perturbed = ref [] in
  let slot = ref 0 in
  while Array.length cands + List.length !perturbed < candidates do
    let rng = Rng.create (Hashtbl.hash (0x5eed, ordinal, !slot)) in
    let v = Array.copy (snd cands.(!best)) in
    (* explicit loop: the noise stream must be consumed in index order *)
    for i = 0 to dof - 1 do
      v.(i) <- v.(i) +. (scale *. Rng.gaussian rng)
    done;
    perturbed := (Seed_select.Perturbed, clamp chain v) :: !perturbed;
    incr slot
  done;
  Array.append cands (Array.of_list (List.rev !perturbed))

let oracle_choose ~library ~session_seed ~candidates ~ordinal ~scale ~chain
    ~target ~theta0 =
  let cands =
    oracle_candidates ~library ~session_seed ~candidates ~ordinal ~scale
      ~chain ~target ~theta0
  in
  let scores =
    Array.map
      (fun (_, v) ->
        oracle_score chain ~tx:target.Vec3.x ~ty:target.Vec3.y
          ~tz:target.Vec3.z v)
      cands
  in
  let best = ref 0 in
  Array.iteri (fun k s -> if s < scores.(!best) then best := k) scores;
  cands.(!best)

(* One request's selector spec, with the library row resolved the way the
   service's snapshot pass does. *)
let spec ~library ~session_seed ~candidates ~ordinal ~scale ~chain
    (p : Ik.problem) =
  let t = p.Ik.target in
  {
    Seed_select.ordinal;
    chain;
    tx = t.Vec3.x;
    ty = t.Vec3.y;
    tz = t.Vec3.z;
    theta0 = p.Ik.theta0;
    session_seed;
    library;
    library_index =
      (match library with
      | Some lib -> Posture_library.nearest_index lib ~x:t.Vec3.x ~y:t.Vec3.y ~z:t.Vec3.z
      | None -> -1);
    candidates;
    scale;
    dst = Array.make (Chain.dof chain) 0.;
  }

(* A wave of 1-8 requests on mixed chains and DOFs, each with its own
   candidate count and any mix of session seed and library:
   every spec's winner must be bit-equal to scoring its own candidates one
   at a time, whatever else shares the wave. *)
let test_winner_matches_oracle =
  QCheck.Test.make
    ~name:"multi-seed winner == serial per-candidate oracle (bitwise, waves)"
    ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 1 8))
    (fun (seed, wave) ->
      let wave = max 1 wave in
      let rng = Rng.create seed in
      let cases =
        Array.init wave (fun r ->
            let dof = 3 + Rng.int rng 98 in
            let chain = chain_of_case ~kind:(seed + r) ~dof in
            let p = Ik.random_problem rng chain in
            let draw = Rng.int rng 8 in
            let library =
              if draw mod 3 = 0 then None
              else Some (Posture_library.build ~chain ~count:24 ~seed:(seed + r) ())
            in
            let session_seed =
              if draw land 2 = 0 then Some (Target.random_config rng chain)
              else None
            in
            let candidates = 1 + Rng.int rng 8 in
            (chain, p, library, session_seed, candidates, seed + r))
      in
      let specs =
        Array.map
          (fun (chain, p, library, session_seed, candidates, ordinal) ->
            spec ~library ~session_seed ~candidates ~ordinal ~scale:0.1 ~chain
              p)
          cases
      in
      let sources = Seed_select.choose_wave (Seed_select.create ()) specs in
      Array.for_all Fun.id
        (Array.mapi
           (fun r (chain, p, library, session_seed, candidates, ordinal) ->
             let osrc, otheta =
               oracle_choose ~library ~session_seed ~candidates ~ordinal
                 ~scale:0.1 ~chain ~target:p.Ik.target ~theta0:p.Ik.theta0
             in
             sources.(r) = osrc && vec_bits_equal specs.(r).Seed_select.dst otheta)
           cases))

let test_selector_scratch_reuse () =
  (* one scratch serving alternating chains/candidate counts returns the
     same winners as fresh scratches *)
  let sel = Seed_select.create () in
  let rng = Rng.create 7 in
  let ok = ref true in
  for i = 0 to 19 do
    let chain = chain_of_case ~kind:i ~dof:(3 + (i * 5 mod 60)) in
    let p = Ik.random_problem rng chain in
    let lib = Posture_library.build ~chain ~count:16 ~seed:i () in
    let run sel =
      let s =
        spec ~library:(Some lib) ~session_seed:None ~candidates:(2 + (i mod 5))
          ~ordinal:i ~scale:0.1 ~chain p
      in
      let src = Seed_select.choose_wave sel [| s |] in
      (src.(0), s.Seed_select.dst)
    in
    let s1, d1 = run sel in
    let s2, d2 = run (Seed_select.create ()) in
    if not (s1 = s2 && vec_bits_equal d1 d2) then ok := false
  done;
  Alcotest.(check bool) "reused scratch == fresh scratch" true !ok

(* ---- library seeding cuts iterations (acceptance criterion) ---- *)

let test_seeded_fewer_iterations () =
  let chain = Robots.eval_chain ~dof:30 in
  let lib = Posture_library.build ~chain ~count:256 ~seed:1 () in
  let rng = Rng.create 2 in
  let config = { Ik.default_config with Ik.max_iterations = 2_000 } in
  let cold = ref 0 and seeded = ref 0 and n = 40 in
  for _ = 1 to n do
    let p = Ik.random_problem rng chain in
    let r_cold = Quick_ik.solve ~config p in
    let theta0 =
      match Posture_library.nearest lib p.Ik.target with
      | Some (q, _) -> q
      | None -> Alcotest.fail "no neighbour"
    in
    let r_seeded = Quick_ik.solve ~config { p with Ik.theta0 } in
    (* a cold miss burns its full cap, which only helps the cold total —
       the comparison stays honest without pinning cold convergence *)
    Alcotest.(check bool) "seeded converges" true
      (r_seeded.Ik.status = Ik.Converged);
    cold := !cold + r_cold.Ik.iterations;
    seeded := !seeded + r_seeded.Ik.iterations
  done;
  if not (!seeded < !cold) then
    Alcotest.failf "library seeding did not cut iterations: seeded %d vs cold %d"
      !seeded !cold

let () =
  Alcotest.run "dadu_posture"
    [
      ( "nearest neighbour",
        [
          qcheck test_nn_matches_brute_force;
          Alcotest.test_case "edge cases" `Quick test_nn_edge_cases;
          Alcotest.test_case "build deterministic" `Quick
            test_build_deterministic;
          Alcotest.test_case "chain fingerprints" `Quick
            test_fingerprint_identity;
          Alcotest.test_case "stored fingerprint = reference fold" `Quick
            test_fingerprint_reference;
        ] );
      ( "persistence",
        [
          qcheck test_roundtrip_bit_identity;
          Alcotest.test_case "typed load errors" `Quick test_load_typed_errors;
        ] );
      ( "seed selection",
        [
          qcheck test_winner_matches_oracle;
          Alcotest.test_case "scratch reuse" `Quick test_selector_scratch_reuse;
          Alcotest.test_case "library seeding cuts iterations" `Slow
            test_seeded_fewer_iterations;
        ] );
    ]
