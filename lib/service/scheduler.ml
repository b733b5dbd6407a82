module Pool = Dadu_util.Domain_pool
module Trace = Dadu_util.Trace

type t = { pool : Pool.t option; chunk : int }

let create ?pool ?(chunk = 64) () =
  if chunk <= 0 then invalid_arg "Scheduler.create: chunk must be positive";
  { pool; chunk }

let guarded f x = try Ok (f x) with exn -> Error exn

let run_wave t f n =
  match t.pool with
  | None -> Array.init n f
  | Some pool -> Pool.map pool f n

let map t f xs =
  let n = Array.length xs in
  run_wave t (fun i -> guarded f xs.(i)) n

type dispatch = { index : int; elapsed_s : float; expired : bool }

type wave_phase = Prepare | Work | Commit

(* The chunked serial-prepare / parallel-work / serial-commit skeleton.

   Each wave's dispatches are built serially in input order — one clock
   read each, before any prepare work runs — and handed to [prepare] as
   an array: the wave-start snapshot of the clock.  Without deadlines or
   a budget the dispatch values are clock-independent.

   Phase hook: [phase_done] fires on the orchestrating domain immediately
   after each phase of each wave with the phase's wall time.  It
   defaults to a no-op and never affects scheduling; timing reads use
   the real monotonic clock, not the (injectable) [now], so fake-clock
   tests keep their reading budget. *)
let map_deadlined t ?(now = Trace.now_s) ?budget_s ?deadline_s ?cut
    ?phase_done ~prepare ~work ~commit n =
  if n = 0 then [||]
  else begin
    let t0 = now () in
    (* inclusive, so a 0-second deadline (or budget) expires immediately
       even when the clock has not visibly advanced since [t0] *)
    let past limit elapsed =
      match limit with None -> false | Some l -> elapsed >= l
    in
    let deadline_of i =
      match deadline_s with None -> None | Some f -> f i
    in
    (* placeholder is overwritten for every index before the array is
       returned *)
    let out = Array.make n (Error Exit) in
    let off = ref 0 in
    while !off < n do
      let base = !off in
      let len = Stdlib.min t.chunk (n - base) in
      (* [cut ~base i] ends the wave before item [i]: the caller needs the
         serial commit of an earlier item to run before [i]'s prepare (the
         session warm-start chain).  Queried in input order, so wave shapes
         are a pure function of the input array — never of the pool. *)
      let len =
        match cut with
        | None -> len
        | Some cut ->
          let stop = ref len in
          (let i = ref 1 in
           while !i < !stop do
             if cut ~base (base + !i) then stop := !i else incr i
           done);
          !stop
      in
      let timed phase f =
        match phase_done with
        | None -> f ()
        | Some d ->
          let start_s = Trace.now_s () in
          let r = f () in
          d phase ~base ~len ~start_s ~dur_s:(Trace.now_s () -. start_s);
          r
      in
      let dispatch_at index =
        (* expiry is decided here, in the serial phase, so every pool
           size observes the same prepared values for the same clock
           readings — and, with no deadlines or budget at all, no
           clock reading can change the outcome *)
        let elapsed_s = now () -. t0 in
        let expired =
          past budget_s elapsed_s || past (deadline_of index) elapsed_s
        in
        { index; elapsed_s; expired }
      in
      let prepared =
        timed Prepare (fun () ->
            prepare (Array.init len (fun j -> dispatch_at (base + j))))
      in
      if Array.length prepared <> len then
        invalid_arg "Scheduler: prepare returned wrong arity";
      let results =
        timed Work (fun () ->
            run_wave t (fun j -> guarded work prepared.(j)) len)
      in
      timed Commit (fun () ->
          for j = 0 to len - 1 do
            out.(base + j) <- results.(j);
            commit (base + j) results.(j)
          done);
      off := base + len
    done;
    out
  end
