(* Per-layer measurements shared by the workloads: the search telemetry
   read through [Telemetry.stats], the layer probe that times each
   layer's public function on seeded sampled programs, and the
   checkpoint and serving probes.  Probes run only in traced runs, after
   the timed rounds. *)

open Ansor
open Harness

let machine = Machine.intel_cpu

(* ---- the serving deployment ----------------------------------------------- *)

let service_workers = 2

(* Open-loop load at 35% of the deployment's capacity with one 2x burst
   over a fifth of the trace: the queue stays far below its bound, so no
   request is shed at any seed.  Two tenants share a priority queue.  The
   burst shortens the trace to about 0.8 [length] of virtual time, so a
   tuner tick every 0.18 [length] gives four background rounds at every
   seed, well clear of the trace's end. *)
let serve_config ~nominal ~requests ~seed ~tuner =
  let rate = 0.35 *. float_of_int service_workers /. nominal in
  let length = float_of_int requests /. rate in
  let tenant name weight priority =
    {
      Loadgen.name;
      weight;
      quota_rate = infinity;
      quota_burst = infinity;
      priority;
    }
  in
  {
    Server.default_config with
    Server.shards = 4;
    capacity = 64;
    service_workers;
    pool_workers = 1;
    seed;
    load =
      {
        Loadgen.arrival_rate = rate;
        bursts = [ { Loadgen.after = 0.3 *. length; len = 0.2 *. length; factor = 2.0 } ];
        tenants = [ tenant "interactive" 1.0 1; tenant "batch" 3.0 0 ];
        seed;
      };
    admission =
      {
        Admission.queue_bound = 4096;
        shed_policy = Admission.Reject_newest;
        discipline = Admission.Priority;
      };
    tuner =
      (if tuner then Some { Server.every = 0.18 *. length; trials = 8 } else None);
  }

(* The noise-free service time of one request, used to set the rate. *)
let nominal_latency ~registry net =
  Server.nominal_latency (Server.create ~registry ~machine net)

(* p99 latency of one inference over [programs] ((latency, weight)
   pairs) with the serving tier's per-layer log-normal execution jitter
   and no queueing. *)
let inference_p99 ~seed programs =
  let rng = Rng.create seed in
  let noise = Server.default_config.Server.noise in
  let h = Histogram.create () in
  for _ = 1 to 20_000 do
    Histogram.add h
      (List.fold_left
         (fun acc (base, weight) ->
           acc +. (float_of_int weight *. base *. exp (noise *. Rng.gaussian rng)))
         0.0 programs)
  done;
  Histogram.quantile h 0.99

(* ---- search telemetry ----------------------------------------------------- *)

let phases = [ "sample"; "evolve"; "model_rank"; "measure"; "retrain"; "descent" ]

(* [wall] is the session's elapsed time; what the phase timers do not
   cover is reported as unattributed. *)
let search ~wall ~over_budget (s : Telemetry.stats) =
  let phase p = Option.value ~default:0.0 (List.assoc_opt p s.Telemetry.phase_seconds) in
  let attributed = sum (List.map (fun (_, t) -> t) s.Telemetry.phase_seconds) in
  let scored = s.Telemetry.score_hits + s.Telemetry.score_misses in
  [ ("search.wall_s", wall) ]
  @ List.map (fun p -> ("search." ^ p ^ "_s", phase p)) phases
  @ [
      ("search.unattributed_s", wall -. attributed);
      ( "search.round_ms",
        1e3 *. median (List.map duration (spans_named "search.round")) );
      ("measure_service.trials", float_of_int s.Telemetry.trials);
      ("measure_service.cache_hits", float_of_int s.Telemetry.cache_hits);
      ("measure_service.over_budget_trials", float_of_int over_budget);
      ("evolution.statically_rejected", float_of_int s.Telemetry.statically_rejected);
      ( "score_service.hit_ratio",
        if scored = 0 then 0.0 else float_of_int s.Telemetry.score_hits /. float_of_int scored );
      ("descent.trials", float_of_int s.Telemetry.descent_trials);
      ("descent.sweeps", float_of_int s.Telemetry.descent_sweeps);
    ]

(* ---- layer probe ---------------------------------------------------------- *)

(* Microseconds per element of [xs] spent in [f], inside one span. *)
let per_item_us name f xs =
  let t0 = now () in
  span name (fun () -> List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs);
  (now () -. t0) *. 1e6 /. float_of_int (max 1 (List.length xs))

let per_dag = 16

(* Times each search layer's public function on programs sampled afresh
   (a seed the search did not use) from the workload's DAGs.  The static
   analyses memoize by program hash, so they are timed on two disjoint
   halves of the sample, each half unseen by the analysis it times. *)
let probe ~seed ~dags ~records =
  let rng = Rng.create (seed + 7_777) in
  let sampled =
    List.map
      (fun dag ->
        let policy = Task.policy (Task.create ~name:"probe" ~machine dag) in
        let t0 = now () in
        let sketches = span "sketch.generate" (fun () -> Sketch_gen.generate dag) in
        let gen = now () -. t0 in
        let t1 = now () in
        let states =
          span "sketch.sample" (fun () ->
              Sampler.sample rng policy dag ~sketches ~n:(2 * per_dag))
        in
        (dag, gen, now () -. t1, states))
      dags
  in
  let states = List.concat_map (fun (dag, _, _, sts) -> List.map (fun s -> (dag, s)) sts) sampled in
  let half_a = List.filteri (fun i _ -> i mod 2 = 0) states in
  let half_b = List.filteri (fun i _ -> i mod 2 = 1) states in
  let progs_a = List.map (fun (_, st) -> Lower.lower st) half_a in
  let progs_b = List.map (fun (_, st) -> Lower.lower st) half_b in
  let model_ms, model =
    let t0 = now () in
    let m = span "cost_model.train" (fun () -> Cost_model.train records) in
    ((now () -. t0) *. 1e3, m)
  in
  let rows = List.concat_map Features.of_prog progs_a in
  [
    ("sketch.generate_ms", 1e3 *. median (List.map (fun (_, g, _, _) -> g) sampled));
    ( "sketch.sample_us",
      1e6 *. sum (List.map (fun (_, _, t, _) -> t) sampled) /. float_of_int (List.length states) );
    ("sched.lower_us", per_item_us "sched.lower" (fun (_, st) -> Lower.lower st) half_a);
    ("sched.access_analyze_us", per_item_us "sched.access_analyze" Access.analyze progs_a);
    ("sched.canonical_hash_us", per_item_us "sched.canonical_hash" Prog.canonical_hash progs_a);
    ("features.of_prog_us", per_item_us "features.of_prog" Features.of_prog progs_a);
    ("machine.estimate_us", per_item_us "machine.estimate" (Simulator.estimate machine) progs_a);
    ("analysis.static_errors_us", per_item_us "analysis.static_errors" Analysis.static_errors progs_a);
    ("analysis.certify_us", per_item_us "analysis.certify" Analysis.certify progs_b);
    ( "evolution.mutate_us",
      per_item_us "evolution.mutate" (fun (dag, st) -> Evolution.mutate_tile_sizes rng dag st) half_a );
    ("cost_model.train_ms", model_ms);
    ("cost_model.records", float_of_int (List.length records));
    ( "gbdt.predict_us",
      match Cost_model.gbdt model with
      | Some g -> per_item_us "gbdt.predict" (Gbdt.predict g) rows
      | None -> 0.0 );
  ]

(* ---- checkpoint probe ----------------------------------------------------- *)

let checkpoint ~path image =
  let times f =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           f ();
           (now () -. t0) *. 1e3))
  in
  let save_ms = times (fun () -> span "checkpoint.save" (fun () -> Checkpoint.save ~path image)) in
  let load_ms =
    times (fun () -> ignore (span "checkpoint.load" (fun () -> Checkpoint.load_latest ~path)))
  in
  [
    ("checkpoint.save_ms", save_ms);
    ("checkpoint.load_ms", load_ms);
    ("checkpoint.bytes", float_of_int (file_size path));
  ]

(* ---- serving probe -------------------------------------------------------- *)

let timed_ms name f =
  let t0 = now () in
  let x = span name f in
  (x, (now () -. t0) *. 1e3)

(* Replays [requests] arrivals on a fresh server with the background
   tuner off; returns the elapsed seconds. *)
let loop_seconds ~registry ~config ~requests net =
  let s = Server.create ~config:{ config with Server.tuner = None } ~registry ~machine net in
  Server.warm s;
  let t0 = now () in
  span "serve.run" (fun () -> Server.run s ~requests);
  now () -. t0

let loadgen_us (config : Server.config) ~requests =
  let t0 = now () in
  ignore (span "serve.loadgen" (fun () -> Loadgen.generate config.Server.load ~n:requests));
  (now () -. t0) *. 1e6 /. float_of_int requests

let serve_counts (st : Server.stats) =
  let misses = sum (List.map (fun (s : Server.shard_stats) -> float_of_int s.Server.misses) st.Server.shards) in
  let hits = sum (List.map (fun (s : Server.shard_stats) -> float_of_int s.Server.hits) st.Server.shards) in
  [
    ("serve.shard_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("serve.max_queue_depth", float_of_int st.Server.max_queue_depth);
    ("serve.tuner_rounds", float_of_int st.Server.tuner_rounds);
    ("serve.promotions", float_of_int st.Server.promotions);
    ("serve.rollbacks", float_of_int st.Server.rollbacks);
    ("serve.invalidations", float_of_int st.Server.invalidations);
    ("serve.warm_starts", float_of_int st.Server.warm_starts);
    ("serve.store_samples", float_of_int st.Server.store_samples);
  ]

(* Deploys a tuning workload's final programs the way serve_stream does,
   on a shorter trace: record log -> registry, store, server, then the
   same trace with and without the background tuner. *)
let serve_probe ~dir ~seed ~net entries =
  let requests = 20_000 in
  let log = Filename.concat dir "probe.log" and store = Filename.concat dir "probe.store" in
  Record.append_batch ~path:log entries;
  let registry, build_ms =
    timed_ms "registry.build" (fun () ->
        match Registry.build_from_logs ~paths:[ log ] with
        | Ok (r, _) -> r
        | Error e -> failwith e)
  in
  let model_store, open_ms =
    timed_ms "model_store.open" (fun () ->
        match Model_store.open_session ~path:store () with
        | Ok ms -> ms
        | Error e -> failwith e)
  in
  let config =
    serve_config ~nominal:(nominal_latency ~registry net) ~requests ~seed ~tuner:true
  in
  let server, create_ms =
    timed_ms "serve.create" (fun () -> Server.create ~config ~model_store ~registry ~machine net)
  in
  let (), warm_ms = timed_ms "serve.warm" (fun () -> Server.warm server) in
  let t0 = now () in
  span "serve.run" (fun () -> Server.run server ~requests);
  let with_tuner = now () -. t0 in
  let st, stats_ms = timed_ms "serve.stats" (fun () -> Server.stats server) in
  let loop = loop_seconds ~registry ~config ~requests net in
  [
    ("registry.build_ms", build_ms);
    ("model_store.open_ms", open_ms);
    ("serve.create_ms", create_ms);
    ("serve.warm_ms", warm_ms);
    ("serve.loadgen_us", loadgen_us config ~requests);
    ("serve.loop_us", loop *. 1e6 /. float_of_int requests);
    ("serve.stats_ms", stats_ms);
    ( "serve.tuner_round_ms",
      if st.Server.tuner_rounds > 0 then
        (with_tuner -. loop) *. 1e3 /. float_of_int st.Server.tuner_rounds
      else 0.0 );
  ]
  @ serve_counts st
