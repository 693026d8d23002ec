(* job-truth: one query is Cardest.True_card.compute over the query's
   graph, the exact cardinality of every connected subexpression behind
   every slowdown and q-error figure of the paper. It is the only
   workload in which True_card and its group tables do the work. *)

open Measure
open Fixture

(* The number of connected relation subsets of a join graph, by brute
   force over every subset and a breadth-first search over the edge
   list: code that shares nothing with True_card's own enumeration. *)
let connected_subsets (g : Query.Query_graph.t) =
  let n = Query.Query_graph.n_relations g in
  let adj = Array.make n 0 in
  List.iter
    (fun (e : Query.Query_graph.edge) ->
      let l = e.Query.Query_graph.left and r = e.Query.Query_graph.right in
      adj.(l) <- adj.(l) lor (1 lsl r);
      adj.(r) <- adj.(r) lor (1 lsl l))
    (Query.Query_graph.edges g);
  let connected m =
    let rec grow reached =
      let next = ref reached in
      for i = 0 to n - 1 do
        if reached land (1 lsl i) <> 0 then next := !next lor (adj.(i) land m)
      done;
      if !next = reached then reached else grow !next
    in
    grow (m land -m) = m
  in
  let count = ref 0 in
  for m = 1 to (1 lsl n) - 1 do
    if connected m then incr count
  done;
  !count

let run args =
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
  let graph i = (fst planned.(i)).Core.Session.graph in
  let expected_subsets = Array.init n (fun i -> connected_subsets (graph i)) in
  (* Each query's plan, executed once outside the window: the full-join
     count True_card must reproduce, and the run's work units. *)
  let x = exec_layer () in
  let executed =
    Array.map
      (fun (q, c) ->
        if args.traced then run_traced x s q c else Core.Session.run s q c)
      planned
  in
  let bad = Array.map (fun r -> r.Exec.Executor.timed_out) executed in
  let work_units = Array.fold_left (fun n r -> n + r.Exec.Executor.work) 0 executed in
  let subsets = ref 0 and compute_s = ref 0.0 in
  let pass () =
    let t0 = now () in
    let lat =
      Array.map
        (fun i ->
          let t = now () in
          let tc = Cardest.True_card.compute (graph i) in
          let dt = now () -. t in
          compute_s := !compute_s +. dt;
          subsets := !subsets + Cardest.True_card.subset_count tc;
          if Cardest.True_card.subset_count tc <> expected_subsets.(i)
             || full_join_rows (fst planned.(i)) tc <> executed.(i).Exec.Executor.rows
          then bad.(i) <- true;
          dt *. 1000.0)
        order
    in
    (lat, now () -. t0)
  in
  (* Untimed warm-up pass, checked like the timed ones. *)
  ignore (pass ());
  let ops passes = List.concat_map (fun _ -> Array.to_list order) passes in
  if not args.traced then begin
    let passes, _ = window ~seconds:args.seconds pass in
    let metrics, tail_ok =
      end_to_end ~setup_s ~passes ~rss_mb:(rss_peak_mb ()) ~db ~work_units
    in
    let ops = ops passes in
    { correct = tail_ok; attempted = List.length ops; failed = count_bad bad ops; metrics }
  end
  else begin
    (* Every pass already times each True_card.compute call for its
       latencies, so the traced passes are the untraced ones and
       obs.trace_overhead is 1 by construction. *)
    subsets := 0;
    compute_s := 0.0;
    let passes, _ = window ~seconds:args.seconds pass in
    let true_card = !compute_s *. 1e6 /. float_of_int !subsets in
    let planner, same_plans = traced_setup_planning db planned in
    let ops = ops passes in
    {
      correct = same_plans;
      attempted = List.length ops;
      failed = count_bad bad ops;
      metrics =
        datagen_and_overhead ~datagen:!datagen ~overhead:1.0
        @ sweep db ~true_card:(Some true_card)
        @ planner @ exec_metrics x @ unused_cache_and_admission;
    }
  end
