(* Clocks, order statistics, process memory, per-layer timers and the
   result line. The statistics here are the benchmark's own, so a change
   to the program's Util.Stat cannot redefine a reported metric. *)

(* Seconds on the monotonic clock: a step of the wall clock during a
   pass does not reach the figures. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let a = sorted xs in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Samples strictly above the [p] quantile: the p95 latency is only
   reported as a tail when at least ten samples lie beyond it. *)
let beyond xs p =
  let q = quantile xs p in
  Array.fold_left (fun n x -> if x > q then n + 1 else n) 0 xs

(* Peak resident set of this process, from the kernel's own
   high-water mark (VmHWM, in kB). *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* A permutation of [0, n) drawn from [seed]: the order in which a run
   issues the queries. *)
let order ~seed n =
  let a = Array.init n Fun.id in
  Util.Prng.shuffle (Util.Prng.create seed) a;
  a

(* Runs [setup] [n] times and keeps the last result; returns it with
   the median set-up time. Each repetition starts from a compacted heap
   with the earlier results dropped, so they do not inflate the peak
   resident set. *)
let repeat_setup n setup =
  let times = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    last := None;
    Gc.compact ();
    let t0 = now () in
    last := Some (setup ());
    times.(i) <- now () -. t0
  done;
  (Option.get !last, median times)

(* Whole passes until [seconds] have elapsed since the first one began,
   and at least two, so that a pass of the 113 queries leaves ten
   latency samples beyond the p95. The heap is compacted first, so every
   window starts from the same state. Returns the passes in order and
   the window's length. *)
let window ~seconds pass =
  Gc.compact ();
  let t0 = now () in
  let rec go acc walls =
    let t = now () in
    let acc = pass () :: acc and walls = (now () -. t) :: walls in
    Gc.full_major ();
    if now () -. t0 < seconds || List.length acc < 2 then go acc walls
    else begin
      Printf.eprintf "pass walls (s): %s\n%!"
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") walls));
      (List.rev acc, now () -. t0)
    end
  in
  go [] []

(* The window of a traced run: pairs of an untraced and a traced pass,
   each begun after a full collection, until [seconds] have elapsed.
   A pass returns its latencies and its wall time. Returns the traced
   passes and the median traced wall over the median untraced wall. *)
let interleaved ~seconds untraced traced =
  let pair () =
    let u = untraced () in
    Gc.full_major ();
    (u, traced ())
  in
  let pairs, _ = window ~seconds pair in
  let med f = median (Array.of_list (List.map (fun p -> snd (f p)) pairs)) in
  (List.map snd pairs, med snd /. med fst)

(* A per-layer accumulator: calls into one layer and their total wall
   time. *)
type layer = { mutable calls : int; mutable seconds : float }

let layer () = { calls = 0; seconds = 0.0 }

let time (l : layer) f =
  let t0 = now () in
  let r = f () in
  l.seconds <- l.seconds +. (now () -. t0);
  l.calls <- l.calls + 1;
  r

let per_call_us (l : layer) =
  if l.calls = 0 then 0.0 else l.seconds *. 1e6 /. float_of_int l.calls

(* ------------------------------------------------------------------ *)
(* The result line                                                     *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line o =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.name))
    o.metrics;
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      o.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " ms)
