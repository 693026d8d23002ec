(* job-optimize: each pass opens a fresh session over the generated
   database inside the timed window and, for every query, binds it and
   plans it with DP under the five estimators and the three cost models,
   without executing. One query is its fifteen plans. It shows ANALYZE,
   estimator, DP, cost-model and sanitizer changes and bypasses the
   executor. *)

open Measure
open Fixture

let combos =
  List.concat_map (fun e -> List.map (fun m -> (e, m)) cost_models) estimators

(* Exhaustive DP is optimal in its search space, so its estimated cost
   can be no higher than a heuristic's under the same estimates and cost
   model; the tolerance absorbs summation order only. *)
let no_worse dp other = dp <= other *. (1.0 +. 1e-9)

let check_plans args pipe (q : Core.Pipeline.query) =
  List.for_all
    (fun (estimator, cost_model) ->
      let plan enumerator =
        Core.Pipeline.plan pipe ~estimator ~cost_model ~enumerator ~seed:args.seed q
      in
      match
        ( plan Core.Registry.Exhaustive_dp,
          plan Core.Registry.Greedy_operator_ordering,
          plan (Core.Registry.Quickpick 10) )
      with
      | dp, goo, qp ->
          Verify.Violation.ok (Verify.check_plan q.Core.Pipeline.graph dp.Core.Pipeline.plan)
          && no_worse dp.Core.Pipeline.estimated_cost goo.Core.Pipeline.estimated_cost
          && no_worse dp.Core.Pipeline.estimated_cost qp.Core.Pipeline.estimated_cost
      | exception Invalid_argument _ -> false)
    combos

let run args =
  let reference = load_reference args in
  let datagen = ref [] in
  let db, setup_s =
    repeat_setup setups (fun () ->
        let db, dg = generate args in
        datagen := dg :: !datagen;
        db)
  in
  let cat = catalog () in
  let n = Array.length cat in
  let order = order ~seed:args.seed n in
  let bind pipe i =
    let j = cat.(i) in
    Core.Pipeline.bind pipe ~name:j.Workload.Job.name j.Workload.Job.sql
  in
  let bad = Array.make n false and base = Array.make n [||] in
  (* One pass; [plan_query pipe q] returns the query's fifteen estimated
     costs and [costs i c] takes them. Every pass of a run uses the same
     order, so ANALYZE samples the tables in the same order and the costs
     repeat exactly. The pass keeps nothing of its session, so the passes
     before it do not add to the peak resident set. *)
  let pass plan_query costs () =
    let t0 = now () in
    let pipe = Core.Pipeline.create db in
    let lat =
      Array.map
        (fun i ->
          let t = now () in
          costs i (plan_query pipe (bind pipe i));
          (now () -. t) *. 1000.0)
        order
    in
    (lat, now () -. t0)
  in
  let plain pipe q =
    Array.of_list
      (List.map
         (fun (estimator, cost_model) ->
           (Core.Pipeline.plan pipe ~estimator ~cost_model q).Core.Pipeline.estimated_cost)
         combos)
  in
  (* Untimed warm-up pass: its costs are what every timed pass must
     reproduce. *)
  ignore (pass plain (fun i c -> base.(i) <- c) ());
  let same_costs i c = if c <> base.(i) then bad.(i) <- true in
  (* After the window, in a session of its own: the plans are checked
     against GOO, Quickpick and the plan sanitizer, and the
     PostgreSQL/PostgreSQL plans are executed once: the work the
     optimizer's choices cost, and rows against True_card. *)
  let check_and_execute exec_call =
    let pipe = Core.Pipeline.create db in
    Array.fold_left
      (fun work i ->
        let q = bind pipe i in
        if not (check_plans args pipe q) then bad.(i) <- true;
        let r = exec_call pipe q (Core.Pipeline.plan pipe q) in
        if r.Exec.Executor.timed_out || r.Exec.Executor.rows <> reference.(i) then
          bad.(i) <- true;
        work + r.Exec.Executor.work)
      0 order
  in
  let ops passes = List.concat_map (fun _ -> Array.to_list order) passes in
  if not args.traced then begin
    let passes, _ = window ~seconds:args.seconds (pass plain same_costs) in
    let rss_mb = rss_peak_mb () in
    let work_units = check_and_execute (fun s q c -> Core.Session.run s q c) in
    let metrics, tail_ok = end_to_end ~setup_s ~passes ~rss_mb ~db ~work_units in
    let ops = ops passes in
    { correct = tail_ok; attempted = List.length ops; failed = count_bad bad ops; metrics }
  end
  else begin
    let l = planner_layers () in
    let traced pipe q =
      let p0 = (Core.Pipeline.stats pipe).Core.Pipeline.estimator_probes in
      let plans, ok = plan_traced pipe l q combos in
      l.probes <- l.probes + (Core.Pipeline.stats pipe).Core.Pipeline.estimator_probes - p0;
      if ok then Array.of_list (List.map snd plans) else [||]
    in
    let passes, overhead =
      interleaved ~seconds:args.seconds (pass plain same_costs)
        (pass traced same_costs)
    in
    let x = exec_layer () in
    ignore (check_and_execute (run_traced x));
    let ops = ops passes in
    {
      correct = true;
      attempted = List.length ops;
      failed = count_bad bad ops;
      metrics =
        datagen_and_overhead ~datagen:!datagen ~overhead
        @ sweep db ~true_card:None
        @ planner_metrics l ~passes:(List.length passes)
        @ exec_metrics x @ unused_cache_and_admission;
    }
  end
