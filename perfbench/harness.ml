(* Clocks, spans, metrics and the run's scratch directory.

   Spans are recorded only here, in the benchmark, around calls into the
   library: a span is (name, start, end, parent).  A layer is the span
   name up to its first dot, so "search.tune" and "search.round" both
   belong to "search".  Tracing is off in the runs that produce end-to-end
   metrics; [span] is then a plain call. *)

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum = List.fold_left ( +. ) 0.0

(* ---- spans ---------------------------------------------------------------- *)

type span = { id : int; name : string; start : float; stop : float; parent : int }

let tracing = ref false
let origin = now ()
let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current_parent () = match !open_ids with p :: _ -> p | [] -> -1

let span name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    open_ids := id :: !open_ids;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        spans := { id; name; start; stop = now (); parent } :: !spans)
      f
  end

(* A span delimited by library hooks rather than by a call: a tuning
   round runs between two [on_round] callbacks, inside the open
   [Tuner.tune]/[Scheduler.run] span. *)
let record name ~start ~stop =
  if !tracing then
    spans :=
      { id = fresh_id (); name; start; stop; parent = current_parent () }
      :: !spans

(* Tuning rounds, traced from a session's [on_round] hook: a round runs
   from the previous hook (or the session's start) to the next. *)
type laps = { mutable last : float }

let laps () = { last = now () }

let lap l =
  let t = now () in
  record "search.round" ~start:l.last ~stop:t;
  l.last <- t

(* Work the hook itself does (logging, checkpoints) is not a round. *)
let resume l = l.last <- now ()

let spans_named name =
  List.filter (fun s -> String.equal s.name name) !spans

let duration s = s.stop -. s.start

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus what its children cover. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans

(* Per-layer table of self times, printed to stderr: the last line of
   stdout belongs to the result object. *)
let print_table ~workload =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      let n, tot = Option.value ~default:(0, 0.0) (Hashtbl.find_opt rows l) in
      Hashtbl.replace rows l (n + 1, tot +. self))
    (self_times ());
  let rows =
    List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [])
  in
  Printf.eprintf "\nper-layer self time, %s (layer \"bench\" is the harness itself)\n"
    workload;
  Printf.eprintf "  %-16s %8s %12s\n" "layer" "spans" "self s";
  List.iter
    (fun (l, (n, t)) -> Printf.eprintf "  %-16s %8d %12.4f\n" l n t)
    rows

let write_spans ~path ~workload =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"id\":%d,\"workload\":%S}\n"
        s.name (s.start -. origin) (s.stop -. origin) s.parent s.id workload)
    (List.rev !spans);
  close_out oc

(* ---- process facts -------------------------------------------------------- *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
        (fun kb -> kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---- scratch directory ---------------------------------------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let file_size path = (Unix.stat path).Unix.st_size

(* ---- set-up and timed rounds ---------------------------------------------- *)

(* Runs the set-up [reps] times and reports the median time; the last
   repetition's product is used. *)
let setup ~reps f =
  let rec go r times =
    let t0 = now () in
    let x = span "bench.setup" (fun () -> f r) in
    let times = (now () -. t0) :: times in
    if r + 1 < reps then go (r + 1) times else (median times, x)
  in
  go 0 []

(* [peak_rss_mb] is the process's high-water mark right after the round.
   It only grows from round to round, although the rounds repeat the same
   operations: OCaml 5.1 does not give heap back, and its heap fragments.
   So only the first round's mark is reported, which does not depend on
   how many rounds fit in a run. *)
type round = { wall : float; cpu : float; peak_rss_mb : float }

(* Whole rounds until at least [seconds] have been measured; [prepare r]
   runs untimed before round [r], [finish r] after it, and what [finish]
   returns is kept.  Every round performs the same operations, so the
   share of failed operations does not depend on how many rounds fit. *)
let timed_rounds ~finish ~seconds ~prepare run =
  let rec go r measured acc =
    (* start every round from a compacted heap, so garbage left by the
       set-up or an earlier round is neither collected on the clock nor
       alive next to the new round's data *)
    Gc.compact ();
    let x = prepare r in
    let w0 = now () and c0 = cpu () in
    let res = span "bench.round" (fun () -> run r x) in
    let measured_round = { wall = now () -. w0; cpu = cpu () -. c0; peak_rss_mb = peak_rss_mb () } in
    Printf.eprintf "round %d: wall %.3f s, cpu %.3f s, peak rss %.1f MB\n%!" r
      measured_round.wall measured_round.cpu measured_round.peak_rss_mb;
    let acc = (measured_round, finish r res) :: acc in
    let measured = measured +. measured_round.wall in
    if measured < seconds then go (r + 1) measured acc
    else List.rev acc
  in
  go 0 0.0 []

(* Seed of round [r]: round 0 uses the run's seed itself. *)
let round_seed seed r = seed + (r * 1_000_003)

(* What a workload hands back to [Main]. *)
type report = {
  setup_s : float;
  rounds : round list;
  code_ms : float;
  p99_ms : float;
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness checks *)
  layers : (string * float) list;  (** per-layer values, traced runs only *)
}

let check errors = function Ok () -> () | Error e -> errors := e :: !errors
