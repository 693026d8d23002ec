(* What the four workloads share: their arguments, the generated
   database, the JOB catalog, the True_card row-count reference, timed
   executor and planner calls, and the layer sweep of the traced run. *)

open Measure

type args = {
  workload : string;
  seed : int;  (** traffic seed: query order, request script *)
  seconds : float;
  traced : bool;
  data_seed : int;
  scale : float;
}

(* Set-ups per run: setup_s is their median. *)
let setups = 5

(* The five emulated estimators and three cost models of the paper. *)
let estimators = [ "PostgreSQL"; "DBMS A"; "DBMS B"; "DBMS C"; "HyPer" ]
let cost_models = [ "PostgreSQL"; "tuned"; "Cmm" ]

let catalog () = Array.of_list Workload.Job.all

(* ------------------------------------------------------------------ *)
(* Database and storage                                                *)

(* One database generation, timed as the datagen layer. *)
let generate args =
  let t0 = now () in
  let db = Datagen.Imdb_gen.generate ~seed:args.data_seed ~scale:args.scale () in
  (db, now () -. t0)

let columns db =
  List.concat_map
    (fun name ->
      Array.to_list (Storage.Table.columns (Storage.Database.find_table db name)))
    (Storage.Database.table_names db)

let column_bytes db =
  List.fold_left (fun n c -> n + Storage.Column.byte_size c) 0 (columns db)

let storage_ratio db =
  let flat =
    List.fold_left (fun n c -> n + Storage.Column.flat_byte_size c) 0 (columns db)
  in
  float_of_int (column_bytes db) /. float_of_int flat

(* ------------------------------------------------------------------ *)
(* The True_card row-count reference                                   *)

let reference_path args =
  Printf.sprintf "perfbench/reference/rows-%g-%d.txt" args.scale args.data_seed

(* The exact size of each query's full join, by True_card: an algorithm
   that shares no code with the executor. *)
let full_join_rows (q : Core.Session.query) tc =
  let full = Query.Query_graph.full_set q.Core.Session.graph in
  int_of_float (Cardest.True_card.card tc full)

let regenerate_reference args =
  let db, _ = generate args in
  let s = Core.Session.of_database db in
  let path = reference_path args in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# scale %g data-seed %d: query, True_card full-join rows\n"
        args.scale args.data_seed;
      Array.iter
        (fun (j : Workload.Job.query) ->
          let q = Core.Session.sql s ~name:j.Workload.Job.name j.Workload.Job.sql in
          let tc = Cardest.True_card.compute q.Core.Session.graph in
          Printf.fprintf oc "%s %d\n%!" j.Workload.Job.name (full_join_rows q tc))
        (catalog ()));
  Printf.printf "wrote %s\n" path

(* Reference rows indexed like [catalog ()]. *)
let load_reference args =
  let path = reference_path args in
  if not (Sys.file_exists path) then begin
    Printf.eprintf
      "perfbench: no row-count reference %s for scale %g and data seed %d; \
       create it with: python3 perfbench/run.py --regen-reference --scale %g \
       --data-seed %d\n"
      path args.scale args.data_seed args.scale args.data_seed;
    exit 2
  end;
  let tbl = Hashtbl.create 128 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            Scanf.sscanf line "%s %d" (fun name rows -> Hashtbl.replace tbl name rows)
        done
      with End_of_file -> ());
  Array.map
    (fun (j : Workload.Job.query) ->
      match Hashtbl.find_opt tbl j.Workload.Job.name with
      | Some rows -> rows
      | None ->
          failwith (Printf.sprintf "%s has no entry for %s" path j.Workload.Job.name))
    (catalog ())

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

(* Bind and plan the catalog in its fixed order with PostgreSQL
   estimates, the PostgreSQL cost model and DP: the plans job-exec,
   job-truth and serve-zipf execute. *)
let plan_catalog s =
  Array.map
    (fun (j : Workload.Job.query) ->
      let q = Core.Session.sql s ~name:j.Workload.Job.name j.Workload.Job.sql in
      (q, Core.Session.optimize s q))
    (catalog ())

type planner_layers = {
  dp : layer;
  cost : layer;
  verify : layer;
  mutable probes : int;
}

let planner_layers () =
  { dp = layer (); cost = layer (); verify = layer (); probes = 0 }

(* One query planned under the given (estimator, cost model) pairs with
   DP, by calling the layers directly and timing each call. The
   estimator comes from the pipeline, whose probe counter is the
   cardest.probes figure; the rest mirrors Pipeline.plan. Returns each
   plan with its estimated cost, and whether every plan passed
   Verify.check_plan. *)
let plan_traced pipe (l : planner_layers) (q : Core.Pipeline.query) combos =
  let db = Core.Pipeline.db pipe in
  let graph = q.Core.Pipeline.graph in
  let ok = ref true in
  let plans =
    List.map
      (fun (e, m) ->
        let est = Core.Pipeline.estimator pipe q e in
        let model = Core.Registry.find_exn Core.Registry.cost_models m in
        let card = est.Cardest.Estimator.subset in
        let search =
          Planner.Search.create ~allow_nl:false ~allow_hash:true
            ~shape:Planner.Search.Any_shape ~model ~graph ~db ~card ()
        in
        let plan, cost = time l.dp (fun () -> Planner.Dp.optimize search) in
        let v = time l.verify (fun () -> Verify.check_plan graph plan) in
        if not (Verify.Violation.ok v) then ok := false;
        ignore
          (time l.cost (fun () ->
               Cost.Cost_model.plan_cost model { Cost.Cost_model.graph; db; card } plan));
        (plan, cost))
      combos
  in
  (plans, !ok)

let planner_metrics (l : planner_layers) ~passes =
  let per_pass x = x /. float_of_int passes in
  [
    metric "cardest.probes" "count" (per_pass (float_of_int l.probes));
    metric "cost.plan_cost_us" "us" (per_call_us l.cost);
    metric "planner.dp_s" "s" (per_pass l.dp.seconds);
    metric "planner.plans_enumerated" "count" (per_pass (float_of_int l.dp.calls));
    metric "verify.check_us" "us" (per_call_us l.verify);
  ]

(* The traced planning pass of the workloads whose timed operations do
   not plan: the set-up's plans again, from a fresh pipeline, through
   the layers. Returns the planner metrics and whether every plan
   matched the set-up's. *)
let traced_setup_planning db (planned : (Core.Session.query * Core.Session.plan_choice) array) =
  let pipe = Core.Pipeline.create db in
  let l = planner_layers () in
  let same = ref true in
  Array.iter
    (fun ((q : Core.Session.query), (c : Core.Session.plan_choice)) ->
      let q' = Core.Pipeline.bind pipe ~name:q.Core.Session.name q.Core.Session.sql in
      let probes0 = (Core.Pipeline.stats pipe).Core.Pipeline.estimator_probes in
      let plans, ok = plan_traced pipe l q' [ ("PostgreSQL", "PostgreSQL") ] in
      l.probes <-
        l.probes + (Core.Pipeline.stats pipe).Core.Pipeline.estimator_probes - probes0;
      match plans with
      | [ (plan, cost) ] ->
          if not (ok && plan = c.Core.Session.plan && cost = c.Core.Session.estimated_cost)
          then same := false
      | _ -> same := false)
    planned;
  (planner_metrics l ~passes:1, !same)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type exec_layer = {
  mutable ns_per_work : float list;  (** one sample per call *)
  mutable alloc_bytes : float;
  mutable work : int;
}

let exec_layer () = { ns_per_work = []; alloc_bytes = 0.0; work = 0 }

(* Session.run, timed, with the calling domain's allocation: the
   session runs the plan serially on the calling domain. *)
let run_traced (x : exec_layer) s q c =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = Core.Session.run s q c in
  let dt = now () -. t0 in
  x.alloc_bytes <- x.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  let w = r.Exec.Executor.work in
  x.work <- x.work + w;
  if w > 0 then x.ns_per_work <- (dt *. 1e9 /. float_of_int w) :: x.ns_per_work;
  r

let exec_metrics (x : exec_layer) =
  [
    metric "exec.ns_per_work_unit" "ns" (median (Array.of_list x.ns_per_work));
    metric "exec.alloc_bytes_per_work_unit" "B"
      (x.alloc_bytes /. float_of_int (max 1 x.work));
  ]

(* The comparable part of a result: row count, MIN() values, timeout. *)
let answer (r : Exec.Executor.result) =
  (r.Exec.Executor.rows, List.map Storage.Value.to_string r.Exec.Executor.mins,
   r.Exec.Executor.timed_out)

(* ------------------------------------------------------------------ *)
(* The layer sweep of the traced run                                   *)

let reps = 3

let median_of n f = median (Array.init n (fun _ -> f ()))

let decode_ns_per_value db =
  let cols = columns db in
  let buf = Array.make 4096 0 in
  let values = List.fold_left (fun n c -> n + Storage.Column.length c) 0 cols in
  let pass () =
    let t0 = now () in
    List.iter
      (fun c ->
        let n = Storage.Column.length c in
        let i = ref 0 in
        while !i < n do
          let len = min 4096 (n - !i) in
          Storage.Column.decode_into c ~row_start:!i ~len buf;
          i := !i + len
        done)
      cols;
    (now () -. t0) *. 1e9 /. float_of_int values
  in
  median_of reps pass

(* Default and coarse ANALYZE of every table, from fresh instances. *)
let analyze_s db =
  median_of reps (fun () ->
      let t0 = now () in
      let a = Dbstats.Analyze.create db and c = Cardest.Systems.coarse_analyze db in
      List.iter
        (fun name ->
          ignore (Dbstats.Analyze.table a name);
          ignore (Dbstats.Analyze.table c name))
        (Storage.Database.table_names db);
      now () -. t0)

let bind_us db =
  let cat = catalog () in
  median_of 5 (fun () ->
      let t0 = now () in
      Array.iter
        (fun (j : Workload.Job.query) ->
          ignore (Sqlfront.Binder.bind_sql db ~name:j.Workload.Job.name j.Workload.Job.sql))
        cat;
      (now () -. t0) *. 1e6 /. float_of_int (Array.length cat))

let graphs db =
  Array.map
    (fun (j : Workload.Job.query) ->
      (Sqlfront.Binder.bind_sql db ~name:j.Workload.Job.name j.Workload.Job.sql)
        .Sqlfront.Binder.graph)
    (catalog ())

(* Fresh estimators of all five systems over fully analyzed statistics,
   each probed once on every connected subset of every query. *)
let estimate_ns_per_probe db =
  let a = Dbstats.Analyze.create db and c = Cardest.Systems.coarse_analyze db in
  List.iter
    (fun name ->
      ignore (Dbstats.Analyze.table a name);
      ignore (Dbstats.Analyze.table c name))
    (Storage.Database.table_names db);
  let gs = graphs db in
  let subsets = Array.map Query.Query_graph.connected_subsets gs in
  let probes = ref 0 and seconds = ref 0.0 in
  Array.iteri
    (fun i graph ->
      let ctx = { Cardest.Systems.db; graph } in
      List.iter
        (fun system ->
          let est =
            if system = "DBMS B" then Cardest.Systems.dbms_b c ctx
            else Cardest.Systems.by_name a ctx system
          in
          let t0 = now () in
          Array.iter (fun s -> ignore (est.Cardest.Estimator.subset s)) subsets.(i);
          seconds := !seconds +. (now () -. t0);
          probes := !probes + Array.length subsets.(i))
        estimators)
    gs;
  !seconds *. 1e9 /. float_of_int !probes

(* True_card over the sixteen queries with the fewest connected subsets:
   the per-subset cost without the minutes a full pass takes at the
   larger scales. *)
let true_card_us_per_subset db =
  let gs = graphs db in
  let by_size =
    List.sort
      (fun (a, i) (b, j) -> compare (a, i) (b, j))
      (Array.to_list
         (Array.mapi
            (fun i g -> (Array.length (Query.Query_graph.connected_subsets g), i))
            gs))
  in
  let chosen = List.filteri (fun k _ -> k < 16) by_size in
  let subsets = ref 0 in
  let t0 = now () in
  List.iter
    (fun (_, i) ->
      let tc = Cardest.True_card.compute gs.(i) in
      subsets := !subsets + Cardest.True_card.subset_count tc)
    chosen;
  (now () -. t0) *. 1e6 /. float_of_int !subsets

(* The layers every traced run measures the same way. *)
let sweep db ~true_card =
  let tc =
    match true_card with Some v -> v | None -> true_card_us_per_subset db
  in
  [
    metric "storage.column_mb" "MB" (float_of_int (column_bytes db) /. 1048576.0);
    metric "storage.decode_ns_per_value" "ns" (decode_ns_per_value db);
    metric "dbstats.analyze_s" "s" (analyze_s db);
    metric "sqlfront.bind_us" "us" (bind_us db);
    metric "cardest.estimate_ns_per_probe" "ns" (estimate_ns_per_probe db);
    metric "cardest.true_card_us_per_subset" "us" tc;
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)

(* The end-to-end metrics of a window of passes, each pass given as its
   latencies (ms) and its wall time (s). Throughput and median latency
   are medians over the passes, so one pass disturbed by the machine
   does not move them; the p95 pools every sample, and the run is only
   correct if at least ten lie beyond it. [rss_mb] is the peak resident
   set read when the window ended. *)
let end_to_end ~setup_s ~passes ~rss_mb ~db ~work_units =
  let per_pass f = median (Array.of_list (List.map f passes)) in
  let lat = Array.concat (List.map fst passes) in
  ( [
      metric "setup_s" "s" setup_s;
      metric "throughput_qps" "1/s"
        (per_pass (fun (l, wall) -> float_of_int (Array.length l) /. wall));
      metric "latency_p50_ms" "ms" (per_pass (fun (l, _) -> median l));
      metric "latency_p95_ms" "ms" (quantile lat 0.95);
      metric "rss_peak_mb" "MB" rss_mb;
      metric "storage_ratio" "ratio" (storage_ratio db);
      metric "work_units" "count" (float_of_int work_units);
    ],
    beyond lat 0.95 >= 10 )

(* The per-layer figures every traced run reports the same way: the
   set-ups' generation time and the traced passes' wall over the
   untraced passes'. *)
let datagen_and_overhead ~datagen ~overhead =
  [
    metric "datagen.generate_s" "s" (median (Array.of_list datagen));
    metric "obs.trace_overhead" "ratio" overhead;
  ]

(* Per-layer figures of the layers a workload does not use. *)
let unused_cache_and_admission =
  [
    metric "exec.join_cache_hit_ratio" "ratio" 0.0;
    metric "exec.join_cache_evictions" "count" 0.0;
    metric "serve.admission_waits" "count" 0.0;
  ]

let count_bad bad order_ops =
  List.fold_left (fun n i -> if bad.(i) then n + 1 else n) 0 order_ops
