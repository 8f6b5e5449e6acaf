(* op_sweep: ten fresh single-operator sessions, one per operator family,
   each tuned like `ansor tune --descent -t 64` on one domain.

   Corpora stay small, so sampling, the evolution candidate pipeline and
   descent dominate.  The shape of each family is fixed (the smallest of
   its four configurations, which keeps the C oracle cheap) and the seed
   drives the search: drawing shapes by seed makes the geometric-mean
   latency spread by about a quarter between seeds, more than any bound
   this benchmark could hold. *)

open Ansor
open Harness

let machine = Layers.machine
let budget = 64

let shapes =
  [
    ("C1D", 1); ("C2D", 1); ("C3D", 2); ("GMM", 1); ("GRP", 1);
    ("DIL", 1); ("DEP", 4); ("T2D", 4); ("CAP", 2); ("NRM", 1);
  ]

let options = { Tuner.ansor_options with Tuner.descent = Some Descent.default_config }
let service_config = { Measure_service.default_config with Measure_service.num_workers = 1 }

let task_of (op, index) =
  let c = List.nth (Workloads.op_cases ~op ~batch:1) (index - 1) in
  Task.create ~name:c.Workloads.case_name ~machine c.Workloads.dag

type session = {
  task : Task.t;
  tuner : Tuner.t;
  service : Measure_service.t;
  shared : Tuner.Shared.t;
  wall : float;
}

let tune ~seed ~trials task =
  let service = Measure_service.create ~config:service_config ~seed:(seed + 17) machine in
  let shared = Tuner.Shared.create () in
  let t0 = now () in
  let l = laps () in
  let tuner, service =
    span "search.tune" (fun () ->
        Tuner.tune ~seed ~shared ~service ~on_round:(fun _ -> lap l) options ~trials task)
  in
  { task; tuner; service; shared; wall = now () -. t0 }

(* The budget probe: a fixed session whose budget is below one batch.
   Tuner.tune stops only after the batch that crosses the budget, so this
   session overshoots on every run; it stops failing once budgets are
   exact. *)
let probe_task () = task_of ("GMM", 1)

let overshoots s = Measure_service.trials s.service > 1

let run ~seed ~seconds ~dir =
  let setup_s, (tasks, probe) =
    setup ~reps:25 (fun _ -> (List.map task_of shapes, probe_task ()))
  in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let cases = ref [] in
  (* checks one round and keeps each best program's latency and p99; the
     sessions themselves are kept only for the per-layer metrics of a
     traced run, so peak memory does not grow with the number of rounds *)
  let finish r (sessions, probe) =
    attempted := !attempted + List.length sessions + 1;
    if overshoots probe then incr failed;
    let bests =
      List.filter_map
        (fun s ->
          match Tuner.best_state s.tuner with
          | None ->
            incr failed;
            None
          | Some st ->
            let prog = Lower.lower st in
            let c = { Oracle.label = Printf.sprintf "%s (round %d)" s.task.Task.name r; dag = s.task.Task.dag; prog } in
            cases := c :: !cases;
            check errors (Oracle.certified c);
            let lat = Measure_service.true_latency s.service prog in
            check errors
              (Oracle.above_peak ~label:c.Oracle.label ~flops:(Task.flops s.task) ~latency:lat machine);
            Some (s.task.Task.name, lat))
        sessions
    in
    Printf.eprintf "op_sweep round %d best (ms):%s\n" r
      (String.concat "" (List.map (fun (n, l) -> Printf.sprintf " %s=%.4f" n (1e3 *. l)) bests));
    ( List.map (fun (_, l) -> (l, Layers.inference_p99 ~seed:(round_seed seed r) [ (l, 1) ])) bests,
      if r = 0 && !tracing then sessions else [] )
  in
  let rounds =
    timed_rounds ~seconds ~prepare:ignore ~finish (fun r () ->
        let seed = round_seed seed r in
        let sessions = List.map (tune ~seed ~trials:budget) tasks in
        (sessions, tune ~seed:0 ~trials:1 probe))
  in
  let per_round = List.map snd rounds in
  let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs)) in
  let lats = List.concat_map fst per_round in
  (match Oracle.c_equivalence ~dir (List.rev !cases) with
  | Ok _ -> ()
  | Error e -> errors := e :: !errors);
  let layers () =
    let _, (_, sessions) = List.hd rounds in
    let stats = Telemetry.total (List.map (fun s -> Measure_service.stats s.service) sessions) in
    let trials = List.map (fun s -> Measure_service.trials s.service) sessions in
    let last = List.nth sessions (List.length sessions - 1) in
    let image =
      {
        Checkpoint.meta =
          {
            Checkpoint.seed;
            machine = machine.Machine.name;
            task_keys = [ Task.key last.task ];
            rounds = Tuner.rounds_done last.tuner;
          };
        payload =
          Checkpoint.Single
            {
              tuner = Tuner.snapshot last.tuner;
              shared = Tuner.Shared.snapshot last.shared;
              cache = Measure_cache.entries (Measure_service.cache last.service);
              stats = Measure_service.stats last.service;
            };
      }
    in
    let net =
      {
        Workloads.net_name = "op_sweep";
        layers =
          List.map
            (fun s -> ({ Workloads.case_name = s.task.Task.name; dag = s.task.Task.dag }, 1))
            sessions;
      }
    in
    Layers.search ~wall:(sum (List.map (fun s -> s.wall) sessions))
      ~over_budget:(List.fold_left (fun a t -> a + max 0 (t - budget)) 0 trials)
      stats
    @ [ ("scheduler.allocations", 0.0) ]
    @ Layers.probe ~seed ~dags:(List.map (fun (t : Task.t) -> t.Task.dag) tasks)
        ~records:(List.concat_map (fun s -> Tuner.Shared.records s.shared) sessions)
    @ Layers.checkpoint ~path:(Filename.concat dir "probe.snap") image
    @ Layers.serve_probe ~dir ~seed ~net (List.filter_map (fun s -> Record.entry_of_tuner s.tuner) sessions)
  in
  {
    setup_s;
    rounds = List.map fst rounds;
    code_ms = 1e3 *. geomean (List.map fst lats);
    p99_ms = 1e3 *. geomean (List.map snd lats);
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
    layers = (if !tracing then layers () else []);
  }
