(* serve-zipf: a closed loop of two client sessions with no think time,
   served by two domains through Serve.Engine, with the join-build
   recycling cache on at its default budget and plans prepared in
   set-up. Popularity is Zipf (theta 1.1) over the 113-statement
   catalog. It uses the executor concurrently, with skewed repeats and
   cached builds: a change that helps serial execution but hurts serving
   shows here. *)

open Measure
open Fixture

let clients = 2
let theta = 1.1

(* Requests per round. One Engine.run serves one round; a run serves
   whole rounds of the same script. *)
let round_size = 400

(* How often each catalog entry appears in a round: Zipf expected counts
   over a popularity ranking drawn from the data seed, rounded by largest
   remainder so they sum to [round_size]. The multiset is fixed; the
   traffic seed only orders it. *)
let round_counts ~data_seed n =
  let z = Util.Zipf.create ~n ~theta in
  let rank_of = order ~seed:data_seed n in
  let exact = Array.init n (fun q -> Util.Zipf.pmf z rank_of.(q) *. float_of_int round_size) in
  let counts = Array.map (fun e -> int_of_float e) exact in
  let missing = round_size - Array.fold_left ( + ) 0 counts in
  let by_remainder =
    List.sort
      (fun (ra, qa) (rb, qb) -> compare (rb, qa) (ra, qb))
      (List.init n (fun q -> (exact.(q) -. float_of_int counts.(q), q)))
  in
  List.iteri (fun k (_, q) -> if k < missing then counts.(q) <- counts.(q) + 1) by_remainder;
  (counts, rank_of)

let script ~seed ~data_seed n =
  let counts, rank_of = round_counts ~data_seed n in
  let requests = Array.concat (Array.to_list (Array.mapi (fun q c -> Array.make c q) counts)) in
  Util.Prng.shuffle (Util.Prng.create seed) requests;
  let per = Array.length requests / clients in
  let scripts =
    Array.init clients (fun k ->
        Array.init per (fun i ->
            { Serve.Traffic.r_seq = i; r_query = requests.((i * clients) + k); r_think_ms = 0.0 }))
  in
  { Serve.Traffic.scripts; rank_of }

(* Generation, preparation of the catalog and an empty join-build
   cache: what setup_s times. *)
let setup args datagen () =
  let db, dg = generate args in
  datagen := dg :: !datagen;
  let s = Core.Session.of_database db in
  let statements =
    Array.map (fun (j : Workload.Job.query) -> (j.Workload.Job.name, j.Workload.Job.sql)) (catalog ())
  in
  (db, s, Serve.Engine.prepare s statements, Exec.Join_cache.create ())

(* Serves the workload over the set-up; in a traced run, also returns
   what the traced planning pass needs once the pool is down. *)
let serve args ~reference ~datagen ~setup_s (db, s, prepared, cache) pool =
  let n = Array.length prepared in
  let traffic = script ~seed:args.seed ~data_seed:args.data_seed n in
  let config =
    {
      Serve.Engine.engine = Exec.Engine_config.robust;
      cache = Some cache;
      exec_pool = None;
      serve_pool = Some pool;
      max_inflight = clients;
      session_budget = 0;
    }
  in
  (* The serial, uncached run of every catalog entry the script uses:
     what each reply must equal, with rows checked against True_card. *)
  let x = exec_layer () in
  let used = Array.make n false in
  Array.iter (Array.iter (fun r -> used.(r.Serve.Traffic.r_query) <- true)) traffic.Serve.Traffic.scripts;
  let expected =
    Array.mapi
      (fun i (e : Serve.Engine.catalog_entry) ->
        if not used.(i) then None
        else
          let q = e.Serve.Engine.ce_query and c = e.Serve.Engine.ce_choice in
          let r = if args.traced then run_traced x s q c else Core.Session.run s q c in
          let (rows, _, timed_out) as a = answer r in
          if timed_out || rows <> reference.(i) then None else Some a)
      prepared
  in
  let round () =
    let o = Serve.Engine.run s prepared traffic config in
    let failed = ref 0 and work = ref 0 in
    Array.iter
      (Array.iter (fun (p : Serve.Engine.reply) ->
           work := !work + p.Serve.Engine.p_work;
           if expected.(p.Serve.Engine.p_query)
              <> Some (p.Serve.Engine.p_rows, p.Serve.Engine.p_mins, p.Serve.Engine.p_timed_out)
           then incr failed))
      o.Serve.Engine.replies;
    (o, !failed, !work)
  in
  (* Untimed warm-up round: it also fills the join-build cache. *)
  let _, _, work_units = round () in
  let attempted rounds = List.fold_left (fun n (o, _, _) -> n + o.Serve.Engine.completed) 0 rounds in
  let failed rounds = List.fold_left (fun n (_, f, _) -> n + f) 0 rounds in
  (* Simulated work is a pure function of the script: every round must
     charge the warm-up's. *)
  let same_work rounds = List.for_all (fun (_, _, w) -> w = work_units) rounds in
  if not args.traced then begin
    let rounds, _ = window ~seconds:args.seconds round in
    let passes =
      List.map (fun (o, _, _) -> (o.Serve.Engine.latencies_ms, o.Serve.Engine.wall_s)) rounds
    in
    let metrics, tail_ok =
      end_to_end ~setup_s ~passes ~rss_mb:(rss_peak_mb ()) ~db ~work_units
    in
    ( {
        correct = tail_ok && same_work rounds;
        attempted = attempted rounds;
        failed = failed rounds;
        metrics;
      },
      None )
  end
  else begin
    (* The traced rounds are the untraced ones: the cache and admission
       figures are read around the window, not inside the engine, so
       obs.trace_overhead is 1 by construction. *)
    let c0 = Exec.Join_cache.stats cache in
    let rounds, _ = window ~seconds:args.seconds round in
    let c1 = Exec.Join_cache.stats cache in
    let hits = c1.Exec.Join_cache.hits - c0.Exec.Join_cache.hits in
    let lookups = hits + c1.Exec.Join_cache.misses - c0.Exec.Join_cache.misses in
    let waits =
      List.fold_left
        (fun n (o, _, _) -> n + o.Serve.Engine.admission.Serve.Admission.waits)
        0 rounds
    in
    ( {
        correct = same_work rounds;
        attempted = attempted rounds;
        failed = failed rounds;
        metrics =
          datagen_and_overhead ~datagen ~overhead:1.0
          @ exec_metrics x
          @ [
              metric "exec.join_cache_hit_ratio" "ratio"
                (float_of_int hits /. float_of_int (max 1 lookups));
              metric "exec.join_cache_evictions" "count"
                (float_of_int (c1.Exec.Join_cache.evictions - c0.Exec.Join_cache.evictions));
              metric "serve.admission_waits" "count" (float_of_int waits);
            ];
      },
      Some (db, prepared) )
  end

(* The set-ups, the layer sweep and the traced planning pass run while
   no serving pool is up, on one domain like in the other workloads: an
   idle pool slows the calling domain by a varying amount. The calling
   domain serves one of the sessions, so it takes the GC settings the
   pool's worker domains give themselves, as jobench serve does: with a
   small minor heap its collections would stall the other domain. *)
let run args =
  Util.Domain_pool.tune_gc ();
  let reference = load_reference args in
  let datagen = ref [] in
  let prepared, setup_s = repeat_setup setups (setup args datagen) in
  let pool = Util.Domain_pool.create ~domains:clients in
  let o, traced =
    Fun.protect
      ~finally:(fun () -> Util.Domain_pool.shutdown pool)
      (fun () -> serve args ~reference ~datagen:!datagen ~setup_s prepared pool)
  in
  match traced with
  | None -> o
  | Some (db, prepared) ->
      let planner, same_plans =
        traced_setup_planning db
          (Array.map
             (fun (e : Serve.Engine.catalog_entry) ->
               (e.Serve.Engine.ce_query, e.Serve.Engine.ce_choice))
             prepared)
      in
      {
        o with
        correct = o.correct && same_plans;
        metrics = o.metrics @ sweep db ~true_card:None @ planner;
      }
