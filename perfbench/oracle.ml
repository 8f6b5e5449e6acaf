(* Correctness oracles computed outside the search.

   - Each final program, compiled by the C backend, must compute the
     DAG's output tensors of the unscheduled loop nest ([State.init]) on
     the same inputs, within float32 tolerance.  All programs of a run go
     into one translation unit, compiled once.
   - Each final program is certified memory-safe by [Analysis.certify].
   - No latency beats the machine's peak: flops / peak_flops. *)

open Ansor

(* Largest output difference allowed, relative to the output's largest
   magnitude: about 800 float32 ulps of 1.0. *)
let tolerance = 1e-4

type case = { label : string; dag : Dag.t; prog : Prog.t }

let outputs dag = List.map (fun i -> Op.name (Dag.op dag i)) (Dag.outputs dag)

let fill_seed name = Hashtbl.hash name land 0xFFFFFF

let lookup bufs name =
  let rec go i = function
    | [] -> None
    | (n, _) :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 bufs

(* One check function per case: run the naive and the scheduled kernel
   on the same inputs (shared, both only read them), then print the
   largest absolute difference and the largest reference magnitude of
   every DAG output. *)
let emit_check buf i (c : case) naive =
  let p = Printf.bprintf in
  let inputs = List.map fst (Codegen_c.input_buffers naive) in
  p buf "static void check_%d(void) {\n" i;
  List.iteri
    (fun bi (name, shape) ->
      let n = Prog.buffer_size shape in
      if List.mem name inputs then
        p buf "  float *n%d = malloc(%d * sizeof(float)); fill(n%d, %d, %du);\n"
          bi n bi n (fill_seed name)
      else p buf "  float *n%d = calloc(%d, sizeof(float));\n" bi n)
    naive.Prog.buffers;
  List.iteri
    (fun bi (name, shape) ->
      match lookup naive.Prog.buffers name with
      | Some ni when List.mem name inputs -> p buf "  float *t%d = n%d;\n" bi ni
      | _ ->
        p buf "  float *t%d = calloc(%d, sizeof(float));\n" bi
          (Prog.buffer_size shape))
    c.prog.Prog.buffers;
  let args prefix bufs =
    String.concat ", " (List.mapi (fun bi _ -> Printf.sprintf "%s%d" prefix bi) bufs)
  in
  p buf "  kn%d(%s);\n  kt%d(%s);\n" i (args "n" naive.Prog.buffers) i
    (args "t" c.prog.Prog.buffers);
  List.iter
    (fun out ->
      match (lookup naive.Prog.buffers out, lookup c.prog.Prog.buffers out) with
      | Some ni, Some ti ->
        let n = Prog.buffer_size (List.assoc out naive.Prog.buffers) in
        p buf
          "  { double d = 0, r = 0; for (int i = 0; i < %d; i++) { double a = \
           fabs((double)t%d[i] - (double)n%d[i]); double b = \
           fabs((double)n%d[i]); if (a > d || a != a) d = a; if (b > r) r = b; }\n\
          \    printf(\"%d %%.9g %%.9g\\n\", d, r); }\n"
          n ti ni ni i
      | _ -> p buf "  printf(\"%d missing 0\\n\");\n" i)
    (outputs c.dag);
  List.iteri
    (fun bi (name, _) ->
      if not (List.mem name inputs && lookup naive.Prog.buffers name <> None) then
        p buf "  free(t%d);\n" bi)
    c.prog.Prog.buffers;
  List.iteri (fun bi _ -> p buf "  free(n%d);\n" bi) naive.Prog.buffers;
  p buf "}\n\n"

let emit_tu cases =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n\n";
  Buffer.add_string buf Codegen_c.helpers;
  Buffer.add_string buf
    "static void fill(float *a, int n, unsigned s) {\n\
    \  for (int i = 0; i < n; i++) {\n\
    \    s = s * 1664525u + 1013904223u;\n\
    \    a[i] = (float)((s >> 8) & 0xFFFFu) / 65536.0f - 0.5f;\n\
    \  }\n}\n\n";
  List.iteri
    (fun i (c : case) ->
      let naive = Lower.lower (State.init c.dag) in
      Buffer.add_string buf
        (Codegen_c.emit_kernel_fn ~static_fn:true ~name:(Printf.sprintf "kn%d" i)
           naive);
      Buffer.add_string buf
        (Codegen_c.emit_kernel_fn ~static_fn:true ~name:(Printf.sprintf "kt%d" i)
           c.prog);
      emit_check buf i c naive)
    cases;
  Buffer.add_string buf "int main(void) {\n";
  List.iteri (fun i _ -> Printf.bprintf buf "  check_%d();\n" i) cases;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf

(* Compiles and runs the equivalence TU; returns the largest relative
   difference over all outputs, or the first problem found. *)
let c_equivalence ~dir cases =
  let t0 = Unix.gettimeofday () in
  match
    Toolchain.compile_string ~flags:[ "-O2" ] ~dir ~basename:"oracle"
      (emit_tu cases)
  with
  | Error e -> Error ("C oracle does not compile: " ^ e)
  | Ok exe -> (
    let t1 = Unix.gettimeofday () in
    let ran = Toolchain.run ~timeout:120.0 exe [] in
    Printf.eprintf "C oracle: %d programs, compile %.2f s, run %.2f s\n%!"
      (List.length cases) (t1 -. t0) (Unix.gettimeofday () -. t1);
    match ran with
    | Error e -> Error ("C oracle run: " ^ Toolchain.run_error_to_string e)
    | Ok lines ->
      let worst = Array.make (List.length cases) 0.0 in
      let seen = Array.make (List.length cases) 0 in
      let bad = ref None in
      List.iter
        (fun line ->
          match Scanf.sscanf line "%d %s %s" (fun i d r -> (i, d, r)) with
          | i, "missing", _ ->
            bad := Some (Printf.sprintf "%s: output buffer missing" (List.nth cases i).label)
          | i, d, r ->
            let d = float_of_string d and r = float_of_string r in
            let rel = if r > 0.0 then d /. r else d in
            let rel = if Float.is_nan rel then infinity else rel in
            seen.(i) <- seen.(i) + 1;
            worst.(i) <- Float.max worst.(i) rel
          | exception _ -> bad := Some ("C oracle output unreadable: " ^ line))
        lines;
      List.iteri
        (fun i (c : case) ->
          if seen.(i) <> List.length (outputs c.dag) then
            bad := Some (c.label ^ ": outputs not all compared")
          else if worst.(i) > tolerance then
            bad :=
              Some
                (Printf.sprintf "%s: scheduled output differs from the naive loop nest by %.3g (relative)"
                   c.label worst.(i)))
        cases;
      match !bad with
      | Some e -> Error e
      | None -> Ok (Array.fold_left Float.max 0.0 worst))

let certified (c : case) =
  match Analysis.certify c.prog with
  | Bounds.Certified -> Ok ()
  | Bounds.Unsafe _ -> Error (c.label ^ ": certifier found an out-of-bounds witness")
  | Bounds.Unknown -> Error (c.label ^ ": certifier could not prove memory safety")

(* A latency below flops / peak_flops would beat the machine. *)
let above_peak ~label ~flops ~latency machine =
  let floor = flops /. Machine.peak_flops machine in
  if latency >= floor then Ok ()
  else
    Error
      (Printf.sprintf "%s: %.4g s is below the machine's peak-flops floor %.4g s"
         label latency floor)
