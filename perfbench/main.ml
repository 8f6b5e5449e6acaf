(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as the last line of
   stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics without tracing, the per-layer metrics with it.  A failed
   correctness check prints the result with "correct": false and exits
   with status 1. *)

open Harness

let workloads =
  [
    ("op_sweep", Op_sweep.run);
    ("net_session", Net_session.run);
    ("serve_stream", Serve_stream.run);
  ]

(* Per-layer metrics and their units, in output order.  A layer a
   workload does not exercise reads 0. *)
let per_layer =
  List.map (fun n -> (n, "s"))
    [
      "search.wall_s"; "search.sample_s"; "search.evolve_s"; "search.model_rank_s";
      "search.measure_s"; "search.retrain_s"; "search.descent_s"; "search.unattributed_s";
    ]
  @ [
      ("search.round_ms", "ms");
      ("measure_service.trials", "count");
      ("measure_service.cache_hits", "count");
      ("measure_service.over_budget_trials", "count");
      ("evolution.statically_rejected", "count");
      ("score_service.hit_ratio", "ratio");
      ("descent.trials", "count");
      ("descent.sweeps", "count");
      ("scheduler.allocations", "count");
      ("checkpoint.save_ms", "ms");
      ("checkpoint.load_ms", "ms");
      ("checkpoint.bytes", "bytes");
      ("sketch.generate_ms", "ms");
      ("sketch.sample_us", "us");
      ("sched.lower_us", "us");
      ("sched.access_analyze_us", "us");
      ("sched.canonical_hash_us", "us");
      ("features.of_prog_us", "us");
      ("machine.estimate_us", "us");
      ("analysis.static_errors_us", "us");
      ("analysis.certify_us", "us");
      ("evolution.mutate_us", "us");
      ("cost_model.train_ms", "ms");
      ("cost_model.records", "count");
      ("gbdt.predict_us", "us");
      ("registry.build_ms", "ms");
      ("model_store.open_ms", "ms");
      ("serve.create_ms", "ms");
      ("serve.warm_ms", "ms");
      ("serve.loadgen_us", "us");
      ("serve.loop_us", "us");
      ("serve.stats_ms", "ms");
      ("serve.tuner_round_ms", "ms");
      ("serve.shard_hit_ratio", "ratio");
      ("serve.max_queue_depth", "count");
      ("serve.tuner_rounds", "count");
      ("serve.promotions", "count");
      ("serve.rollbacks", "count");
      ("serve.invalidations", "count");
      ("serve.warm_starts", "count");
      ("serve.store_samples", "count");
      ("trace.wall_s", "s");
      ("trace.coverage", "ratio");
      ("trace.spans", "count");
    ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (op_sweep|net_session|serve_stream) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  (workload, int "seed", float_of_int (int "seconds"), trace = 1)

(* The share of the traced rounds that spans around library calls
   cover: everything but the self time of the harness's round spans. *)
let coverage () =
  let rounds = List.filter (fun (s, _) -> String.equal s.name "bench.round") (self_times ()) in
  let total = sum (List.map (fun (s, _) -> duration s) rounds) in
  if total > 0.0 then 1.0 -. (sum (List.map snd rounds) /. total) else 0.0

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  tracing := traced;
  let out = Filename.concat "perfbench" "out" in
  let dir = Filename.concat out (Printf.sprintf "run-%s-%d-%d" workload seed (Unix.getpid ())) in
  mkdir_p dir;
  Filename.set_temp_dir_name dir;
  let report =
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () -> (List.assoc workload workloads) ~seed ~seconds ~dir)
  in
  let wall = median (List.map (fun r -> r.wall) report.rounds) in
  let metrics =
    if traced then begin
      let values =
        report.layers
        @ [
            ("trace.wall_s", wall);
            ("trace.coverage", coverage ());
            ("trace.spans", float_of_int (List.length !spans));
          ]
      in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then failwith ("unknown per-layer metric " ^ name))
        values;
      let path = Filename.concat out (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
      write_spans ~path ~workload;
      print_table ~workload;
      Printf.eprintf "spans written to %s; span coverage of the timed rounds %.3f\n" path
        (coverage ());
      List.map
        (fun (name, unit) -> (name, unit, Option.value ~default:0.0 (List.assoc_opt name values)))
        per_layer
    end
    else
      [
        ("setup_s", "s", report.setup_s);
        ("wall_s", "s", wall);
        ("cpu_s", "s", median (List.map (fun r -> r.cpu) report.rounds));
        ("peak_rss_mb", "MB", (List.hd report.rounds).peak_rss_mb);
        ("code_ms", "ms", report.code_ms);
        ("p99_ms", "ms", report.p99_ms);
      ]
  in
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) report.errors;
  let correct =
    report.errors = [] && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  exit (if correct then 0 else 1)
