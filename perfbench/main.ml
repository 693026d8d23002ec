(* The query-pipeline benchmark: one workload per run, untraced for the
   end-to-end metrics or traced for the per-layer ones. The last line of
   standard output is the result as one JSON object; the exit code is
   non-zero when an operation failed or an output check did not hold.
   perfbench/run.py builds this program and is the command to use. *)

let end_to_end_names =
  [ "setup_s"; "throughput_qps"; "latency_p50_ms"; "latency_p95_ms";
    "rss_peak_mb"; "storage_ratio"; "work_units" ]

let per_layer_names =
  [ "datagen.generate_s"; "storage.column_mb"; "storage.decode_ns_per_value";
    "dbstats.analyze_s"; "sqlfront.bind_us"; "cardest.estimate_ns_per_probe";
    "cardest.probes"; "cardest.true_card_us_per_subset"; "cost.plan_cost_us";
    "planner.dp_s"; "planner.plans_enumerated"; "verify.check_us";
    "exec.ns_per_work_unit"; "exec.alloc_bytes_per_work_unit";
    "exec.join_cache_hit_ratio"; "exec.join_cache_evictions";
    "serve.admission_waits"; "obs.trace_overhead" ]

let workloads =
  [ ("job-exec", Job_exec.run); ("job-optimize", Job_optimize.run);
    ("job-truth", Job_truth.run); ("serve-zipf", Serve_zipf.run) ]

(* job-truth runs at a smaller scale: a True_card pass over the 113
   queries takes 6.5 s at 0.001 and 41 s at 0.005. *)
let default_scale = function "job-truth" -> 0.001 | _ -> 0.005

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--data-seed N] \
   [--scale F] | --regen-reference [--scale F] [--data-seed N]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and data_seed = ref 42 and scale = ref 0.0 in
  let regen = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N traffic seed (query order, request script)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--data-seed", Arg.Set_int data_seed, "N database generator seed (42)");
      ("--scale", Arg.Set_float scale, "F paper-relative scale (workload default)");
      ("--regen-reference", Arg.Set regen, " rewrite the True_card row counts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !seconds <= 0.0 then bad "--seconds must be positive";
  let args =
    {
      Fixture.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      data_seed = !data_seed;
      scale = (if !scale > 0.0 then !scale else default_scale !workload);
    }
  in
  if !regen then Fixture.regenerate_reference args
  else
    match List.assoc_opt !workload workloads with
    | None ->
        bad
          (Printf.sprintf "unknown workload %S (valid: %s)" !workload
             (String.concat ", " (List.map fst workloads)))
    | Some run ->
        let o = run args in
        let expected = if args.traced then per_layer_names else end_to_end_names in
        let names = List.map (fun (m : Measure.metric) -> m.Measure.name) o.Measure.metrics in
        if List.sort compare names <> List.sort compare expected then
          bad "internal error: the workload did not report the declared metrics";
        print_endline (Measure.result_line o);
        if o.Measure.failed > 0 || not o.Measure.correct then exit 1
