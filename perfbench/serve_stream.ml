(* serve_stream: a MobileNet-V2 deployment under open-loop load.

   Set-up: a short tuning session (one scheduler allocation per layer)
   writes a record log and a model store; the registry is built from the
   log, the store reopened and a Server created and warmed.  The timed
   round replays 200k requests in virtual time while a sparse background
   tuner, warm-started from the store, feeds canary promotions in four
   rounds.  The serving tier is the bulk of the round and search a small
   part. *)

open Ansor
open Harness

let machine = Layers.machine
let requests = 200_000
let tune_budget = 176

type deployment = {
  net : Net_session.net;
  registry : Registry.t;
  store : string;
  sched : Scheduler.t;
  tune_wall : float;
  config : Server.config;
  times : (string * float) list;  (** set-up layer times, ms *)
}

(* A warmed server over the deployment's registry and its reopened
   model store. *)
let serve ~seed n ~registry ~store =
  let model_store, open_ms =
    Layers.timed_ms "model_store.open" (fun () ->
        match Model_store.open_session ~path:store () with
        | Ok ms -> ms
        | Error e -> failwith e)
  in
  let config =
    Layers.serve_config
      ~nominal:(Layers.nominal_latency ~registry n.Net_session.net)
      ~requests ~seed ~tuner:true
  in
  let server, create_ms =
    Layers.timed_ms "serve.create" (fun () ->
        Server.create ~config ~model_store ~registry ~machine n.Net_session.net)
  in
  let (), warm_ms = Layers.timed_ms "serve.warm" (fun () -> Server.warm server) in
  (server, config, [ ("model_store.open_ms", open_ms); ("serve.create_ms", create_ms); ("serve.warm_ms", warm_ms) ])

let deploy ~dir ~seed =
  let n = Net_session.net_of (Workloads.mobilenet_v2 ~batch:1) in
  let log = Filename.concat dir "serve.log" and store = Filename.concat dir "serve.store" in
  List.iter remove_tree [ log; store ];
  let sched = Net_session.scheduler ~seed n in
  (match Model_store.open_session ~path:store () with
  | Ok ms -> Tuner.Shared.attach_store ~path:store (Scheduler.shared sched) ms.Model_store.store
  | Error e -> failwith e);
  let session = Net_session.run_session ~seed ~budget:tune_budget ~log n sched in
  let registry, build_ms =
    Layers.timed_ms "registry.build" (fun () ->
        match Registry.build_from_logs ~paths:[ log ] with
        | Ok (r, _) -> r
        | Error e -> failwith e)
  in
  let server, config, times = serve ~seed n ~registry ~store in
  ( {
      net = n;
      registry;
      store;
      sched;
      tune_wall = session.Net_session.wall;
      config;
      times = ("registry.build_ms", build_ms) :: times;
    },
    server )

let estimates server =
  List.map (fun key -> (key, Server.incumbent_latency server ~key)) (Server.keys server)

let run ~seed ~seconds ~dir =
  let times = ref [] in
  let setup_s, (first, server) =
    setup ~reps:3 (fun r ->
        let d, server = deploy ~dir ~seed:(round_seed seed r) in
        times := d.times :: !times;
        (d, server))
  in
  (* the set-up's server serves round 0; later rounds get fresh ones.
     Nothing keeps a served server alive past its round. *)
  let pending = ref (Some server) in
  let errors = ref [] in
  let cases = ref [] in
  (* checks one round's server and keeps only its statistics: a server
     holds every latency sample, and peak memory must not grow with the
     number of rounds *)
  let finish r (server, before, st, stats_s) =
    Printf.eprintf
      "serve_stream round %d: %d offered, %d served, %d shed, %d quota-rejected; %d tuner rounds, %d promotions\n"
      r st.Server.offered st.Server.served st.Server.shed st.Server.quota_rejected
      st.Server.tuner_rounds st.Server.promotions;
    if not (Server.conserved st && st.Server.offered = requests) then
      errors := "offered <> served + shed + quota_rejected" :: !errors;
    (* every promotion was proposed below its incumbent's estimate, and a
       promoted key's incumbent now estimates lower *)
    List.iter
      (fun (e : Server.event) ->
        if e.Server.kind = Server.Proposed && not (e.Server.candidate_p95 < e.Server.incumbent_p95) then
          errors := ("candidate proposed above its incumbent for " ^ e.Server.key) :: !errors)
      st.Server.events;
    List.iter
      (fun (key, est) ->
        match (Server.generation server ~key, est, Server.incumbent_latency server ~key) with
        | Some g, Some b, Some a when g > 0 && not (a < b) ->
          errors := ("promotion did not lower the incumbent of " ^ key) :: !errors
        | _ -> ())
      before;
    let tasks = Workloads.net_tasks ~machine first.net.Net_session.net in
    if r = 0 then
      List.iter
        (fun ((task : Task.t), _) ->
          let st, _ = Registry.resolve first.registry task in
          let c = { Oracle.label = task.Task.name; dag = task.Task.dag; prog = Lower.lower st } in
          cases := c :: !cases;
          check errors (Oracle.certified c))
        tasks;
    let nominal = Server.nominal_latency server in
    check errors
      (Oracle.above_peak ~label:"MobileNet-V2" ~latency:nominal machine
         ~flops:(sum (List.map (fun ((t : Task.t), w) -> float_of_int w *. Task.flops t) tasks)));
    (st, stats_s, 1e3 *. nominal, 1e3 *. st.Server.sojourn.Histogram.p99)
  in
  let rounds =
    timed_rounds ~seconds ~finish
      ~prepare:(fun r ->
        let server =
          match !pending with
          | Some server ->
            pending := None;
            server
          | None ->
            let server, _, _ =
              serve ~seed:(round_seed seed r) first.net ~registry:first.registry ~store:first.store
            in
            server
        in
        (server, estimates server))
      (fun _ (server, before) ->
        span "serve.run" (fun () -> Server.run server ~requests);
        (* the round ends with the statistics a user of the tier reads *)
        let t0 = now () in
        let st = span "serve.stats" (fun () -> Server.stats server) in
        (server, before, st, now () -. t0))
  in
  let per_round = List.map snd rounds in
  let count f = List.fold_left (fun acc (st, _, _, _) -> acc + f st) 0 per_round in
  (match Oracle.c_equivalence ~dir (List.rev !cases) with
  | Ok _ -> ()
  | Error e -> errors := e :: !errors);
  let layers () =
    let round0, (st, stats_s, _, _) = List.hd rounds in
    let loop =
      Layers.loop_seconds ~registry:first.registry ~config:first.config ~requests first.net.Net_session.net
    in
    let setup_median name = median (List.map (List.assoc name) !times) in
    Layers.search ~wall:first.tune_wall
      ~over_budget:(max 0 (Scheduler.total_trials first.sched - tune_budget))
      (Scheduler.stats first.sched)
    @ [ ("scheduler.allocations", float_of_int (Array.fold_left ( + ) 0 (Scheduler.allocations first.sched))) ]
    @ List.map (fun (name, _) -> (name, setup_median name)) first.times
    @ [
        ("serve.loadgen_us", Layers.loadgen_us first.config ~requests);
        ("serve.loop_us", loop *. 1e6 /. float_of_int requests);
        ("serve.stats_ms", stats_s *. 1e3);
        ( "serve.tuner_round_ms",
          if st.Server.tuner_rounds > 0 then
            (round0.wall -. stats_s -. loop) *. 1e3 /. float_of_int st.Server.tuner_rounds
          else 0.0 );
      ]
    @ Layers.serve_counts st
    @ Layers.probe ~seed
        ~dags:(List.map (fun ((t : Task.t), _) -> t.Task.dag) (Workloads.net_tasks ~machine first.net.Net_session.net))
        ~records:(Tuner.Shared.records (Scheduler.shared first.sched))
    @ Layers.checkpoint ~path:(Filename.concat dir "probe.snap")
        (Net_session.image ~seed first.net first.sched)
  in
  {
    setup_s;
    rounds = List.map fst rounds;
    code_ms = median (List.map (fun (_, _, c, _) -> c) per_round);
    p99_ms = median (List.map (fun (_, _, _, p) -> p) per_round);
    attempted = count (fun st -> st.Server.offered);
    failed = count (fun st -> st.Server.shed + st.Server.quota_rejected);
    errors = !errors;
    layers = (if !tracing then layers () else []);
  }
