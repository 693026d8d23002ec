(* job-exec: one query is one Session.run of the robust engine, serial,
   over the plan PostgreSQL estimates, the PostgreSQL cost model and DP
   chose in set-up. It shows executor and storage-scan changes and
   bypasses planning and True_card. *)

open Measure
open Fixture

let run args =
  let reference = load_reference args in
  let datagen = ref [] in
  let (db, s, planned), setup_s =
    repeat_setup setups (fun () ->
        let db, dg = generate args in
        datagen := dg :: !datagen;
        let s = Core.Session.of_database db in
        (db, s, plan_catalog s))
  in
  let n = Array.length planned in
  let order = order ~seed:args.seed n in
  (* Untimed warm-up pass: its answers are what
     every timed pass must reproduce, and its rows must match True_card. *)
  let bad = Array.make n false in
  let base =
    Array.map
      (fun (q, c) ->
        let r = Core.Session.run s q c in
        (answer r, r.Exec.Executor.work))
      planned
  in
  Array.iteri
    (fun i ((rows, _, timed_out), _) ->
      if timed_out || rows <> reference.(i) then bad.(i) <- true)
    base;
  let check i r =
    if (answer r, r.Exec.Executor.work) <> base.(i) then bad.(i) <- true
  in
  let pass exec_call () =
    let t0 = now () in
    let lat =
      Array.map
        (fun i ->
          let q, c = planned.(i) in
          let t = now () in
          let r = exec_call q c in
          let dt = now () -. t in
          check i r;
          dt *. 1000.0)
        order
    in
    (lat, now () -. t0)
  in
  let plain q c = Core.Session.run s q c in
  let ops passes = List.concat_map (fun _ -> Array.to_list order) passes in
  let work_units = Array.fold_left (fun n (_, w) -> n + w) 0 base in
  if not args.traced then begin
    let passes, _ = window ~seconds:args.seconds (pass plain) in
    let metrics, tail_ok =
      end_to_end ~setup_s ~passes ~rss_mb:(rss_peak_mb ()) ~db ~work_units
    in
    let ops = ops passes in
    {
      correct = tail_ok;
      attempted = List.length ops;
      failed = count_bad bad ops;
      metrics;
    }
  end
  else begin
    let x = exec_layer () in
    let passes, overhead =
      interleaved ~seconds:args.seconds (pass plain) (pass (run_traced x s))
    in
    let planner, same_plans = traced_setup_planning db planned in
    let ops = ops passes in
    {
      correct = same_plans;
      attempted = List.length ops;
      failed = count_bad bad ops;
      metrics =
        datagen_and_overhead ~datagen:!datagen ~overhead
        @ sweep db ~true_card:None @ planner @ exec_metrics x
        @ unused_cache_and_admission;
    }
  end
