(* net_session: BERT's six tasks under the gradient task scheduler with one
   shared cost model, run like `ansor network -n bert --budget 200
   --snapshot S --save L` on one domain.

   The corpus grows to a couple of hundred records and every allocation
   refits the GBDT from scratch, so retrain is a large share of a round;
   the workload also exercises scheduler allocation and per-allocation
   checkpoints.  One measurement domain, not two: on a 2-CPU host the
   second domain, spawned for every batch the services score or
   measure, made rounds slower and their times noisier. *)

open Ansor
open Harness

let machine = Layers.machine
let budget = 200
let service_config = { Measure_service.default_config with Measure_service.num_workers = 1 }

type net = {
  net : Workloads.net;
  tasks : Task.t array;
  snet : Scheduler.network;
}

let net_of (net : Workloads.net) =
  let tasks = Array.of_list (List.map fst (Workloads.net_tasks ~machine net)) in
  let snet =
    {
      Scheduler.net_name = net.Workloads.net_name;
      task_weights = List.mapi (fun i (_, w) -> (i, w)) net.Workloads.layers;
    }
  in
  { net; tasks; snet }

let scheduler ~seed ?(config = service_config) n =
  Scheduler.create
    { Scheduler.default_options with Scheduler.service_config = config; seed }
    ~tasks:n.tasks ~networks:[ n.snet ]

let image ~seed n sched =
  {
    Checkpoint.meta =
      {
        Checkpoint.seed;
        machine = machine.Machine.name;
        task_keys = Array.to_list (Array.map Task.key n.tasks);
        rounds = Array.fold_left ( + ) 0 (Scheduler.allocations sched);
      };
    payload = Checkpoint.Session (Scheduler.snapshot sched);
  }

let task_index n key =
  let rec go i = if String.equal (Task.key n.tasks.(i)) key then i else go (i + 1) in
  go 0

(* Every task's best so far, as record entries. *)
let entries n sched =
  List.filter_map
    (fun i ->
      Option.map
        (fun (st : State.t) ->
          {
            Record.task_key = Task.key n.tasks.(i);
            latency = Scheduler.best_latency sched i;
            steps = st.State.history;
          })
        (Scheduler.best_state sched i))
    (List.init (Array.length n.tasks) Fun.id)

type session = { wall : float; save_ms : float list }

(* One scheduler session with the CLI's per-allocation hooks: every task
   whose best improved is batch-appended to [log], and with [snapshot]
   the whole session is checkpointed. *)
let run_session ~seed ~budget ~log ?snapshot n sched =
  let logged = Array.make (Array.length n.tasks) infinity in
  let saves = ref [] in
  let t0 = now () in
  let l = laps () in
  let on_round s =
    lap l;
    let improved =
      List.filter
        (fun (e : Record.entry) -> e.Record.latency < logged.(task_index n e.Record.task_key))
        (entries n s)
    in
    List.iter (fun (e : Record.entry) -> logged.(task_index n e.Record.task_key) <- e.Record.latency) improved;
    span "record.append" (fun () -> Record.append_batch ~path:log improved);
    (match snapshot with
    | Some path ->
      let t = now () in
      span "checkpoint.save" (fun () -> Checkpoint.save ~path (image ~seed n s));
      saves := (now () -. t) *. 1e3 :: !saves
    | None -> ());
    resume l
  in
  span "scheduler.run" (fun () -> Scheduler.run ~on_round sched ~trial_budget:budget);
  { wall = now () -. t0; save_ms = !saves }

let best_programs n sched =
  List.map
    (fun (i, w) ->
      let task = n.tasks.(i) in
      (task, w, Option.map Lower.lower (Scheduler.best_state sched i)))
    n.snet.Scheduler.task_weights

(* The budget probe: a fixed one-task session whose budget is below one
   batch.  Scheduler.run stops only after the allocation that crosses the
   budget, so it overshoots on every run until budgets are exact. *)
let probe_net () =
  net_of
    {
      Workloads.net_name = "budget-probe";
      layers = [ (List.hd (Workloads.op_cases ~op:"GMM" ~batch:1), 1) ];
    }

let run ~seed ~seconds ~dir =
  let make r =
    let seed = round_seed seed r in
    let n = net_of (Workloads.bert ~batch:1) in
    (n, scheduler ~seed n, scheduler ~seed:0 (probe_net ()))
  in
  let setup_s, first = setup ~reps:25 (fun _ -> make 0) in
  let snap = Filename.concat dir "session.snap" and log = Filename.concat dir "session.log" in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let cases = ref [] in
  (* checks one round, its final snapshot included, and keeps its code
     latency and p99; the session itself is kept only for the
     per-layer metrics of a traced run, so peak memory does not grow with
     the number of rounds *)
  let finish r (n, sched, session, probe_over) =
    attempted := !attempted + Array.length n.tasks + 1;
    if probe_over then incr failed;
    let programs =
      List.filter_map
        (fun (task, w, prog) ->
          match prog with
          | None ->
            incr failed;
            None
          | Some prog ->
            let c = { Oracle.label = Printf.sprintf "%s (round %d)" task.Task.name r; dag = task.Task.dag; prog } in
            cases := c :: !cases;
            check errors (Oracle.certified c);
            Some (Simulator.estimate machine prog, w, task))
        (best_programs n sched)
    in
    (* the reported network latency is sum w_i * g_i over the per-task
       bests *)
    let reported = Scheduler.network_latency sched n.snet in
    let recomputed =
      sum (List.map (fun (i, w) -> float_of_int w *. Scheduler.best_latency sched i) n.snet.Scheduler.task_weights)
    in
    if Float.abs (reported -. recomputed) > 1e-9 *. recomputed then
      errors := Printf.sprintf "network latency %.9g <> sum w*g %.9g" reported recomputed :: !errors;
    let code = sum (List.map (fun (l, w, _) -> float_of_int w *. l) programs) in
    check errors
      (Oracle.above_peak ~label:"BERT" ~latency:code machine
         ~flops:(sum (List.map (fun (_, w, t) -> float_of_int w *. Task.flops t) programs)));
    (* the final snapshot loads back as the last allocation *)
    let t0 = now () in
    (match span "checkpoint.load" (fun () -> Checkpoint.load_latest ~path:snap) with
    | Ok (img, Checkpoint.Current) ->
      if img.Checkpoint.meta.Checkpoint.rounds <> Array.fold_left ( + ) 0 (Scheduler.allocations sched)
      then errors := "final snapshot is not the last allocation" :: !errors
    | Ok (_, Checkpoint.Previous why) -> errors := ("final snapshot rejected: " ^ why) :: !errors
    | Error e -> errors := ("final snapshot does not load: " ^ e) :: !errors);
    let load_ms = (now () -. t0) *. 1e3 in
    let kept = if r = 0 && !tracing then Some (n, sched, session, load_ms, file_size snap) else None in
    let p99 = Layers.inference_p99 ~seed:(round_seed seed r) (List.map (fun (l, w, _) -> (l, w)) programs) in
    (1e3 *. code, 1e3 *. p99, kept)
  in
  let rounds =
    timed_rounds ~seconds ~finish
      ~prepare:(fun r ->
        List.iter remove_tree [ snap; snap ^ ".prev"; log ];
        if r = 0 then first else make r)
      (fun r (n, sched, psched) ->
        let seed = round_seed seed r in
        let s = run_session ~seed ~budget ~log ~snapshot:snap n sched in
        Scheduler.run psched ~trial_budget:1;
        (n, sched, s, Scheduler.total_trials psched > 1))
  in
  let per_round = List.map snd rounds in
  (match Oracle.c_equivalence ~dir (List.rev !cases) with
  | Ok _ -> ()
  | Error e -> errors := e :: !errors);
  let layers () =
    let n, sched, session, load_ms, bytes =
      match List.hd per_round with _, _, Some kept -> kept | _ -> assert false
    in
    Layers.search ~wall:session.wall
      ~over_budget:(max 0 (Scheduler.total_trials sched - budget))
      (Scheduler.stats sched)
    @ [
        ("scheduler.allocations", float_of_int (Array.fold_left ( + ) 0 (Scheduler.allocations sched)));
        ("checkpoint.save_ms", median session.save_ms);
        ("checkpoint.load_ms", load_ms);
        ("checkpoint.bytes", float_of_int bytes);
      ]
    @ Layers.probe ~seed ~dags:(Array.to_list (Array.map (fun (t : Task.t) -> t.Task.dag) n.tasks))
        ~records:(Tuner.Shared.records (Scheduler.shared sched))
    @ Layers.serve_probe ~dir ~seed ~net:n.net (entries n sched)
  in
  {
    setup_s;
    rounds = List.map fst rounds;
    code_ms = median (List.map (fun (c, _, _) -> c) per_round);
    p99_ms = median (List.map (fun (_, p, _) -> p) per_round);
    attempted = !attempted;
    failed = !failed;
    errors = !errors;
    layers = (if !tracing then layers () else []);
  }
