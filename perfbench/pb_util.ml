(* Shared plumbing of the benchmark: clocks, order statistics, files,
   memory, the host block and the result record every workload
   returns. *)

let now = Unix.gettimeofday
let fi = float_of_int

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Order statistics of an empty sample read 0: they appear only in
   the half of a traced run whose numbers are not reported. *)
let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   value of rank n-11 (0-based), at percentile 100·(n-10)/n.  With ten
   samples or fewer no such percentile exists and the maximum stands
   in, reported at 100. *)
let tail_of xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The tail of a run: [tail_of] over consecutive blocks of at most
   [block] samples (p95 for a full block of 200), median over the
   blocks.  Over a whole serve-mix run (thousands of jobs) the rule
   lands on p99.5+, a handful of fsync stalls that swung 30% between
   runs; a fixed block keeps the percentile, and so the figure, the
   same from run to run.  Returns (value, percentile, blocks). *)
let tail ?(block = 200) xs =
  let rec blocks acc cur k = function
    | [] -> List.rev (if cur = [] then acc else cur :: acc)
    | x :: rest ->
        if k = block then blocks (cur :: acc) [ x ] 1 rest else blocks acc (x :: cur) (k + 1) rest
  in
  let bs = blocks [] [] 0 xs in
  (* a short last block would sit at a lower percentile: drop it when
     full blocks exist *)
  let bs =
    match List.rev bs with
    | last :: (_ :: _ as full) when List.length last < block -> List.rev full
    | _ -> bs
  in
  let tails = List.map tail_of bs in
  (median (List.map fst tails), median (List.map snd tails), List.length bs)

(* [(p, value)] at the given percentiles, nearest rank. *)
let percentiles ps xs =
  let a = sorted xs in
  let n = Array.length a in
  List.map
    (fun p ->
      (p, if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. fi n)) - 1 |> max 0))))
    ps

let percentiles_json ps xs =
  "{"
  ^ String.concat ", "
      (List.map (fun (p, v) -> Printf.sprintf "\"p%g\": %.6g" p v) (percentiles ps xs))
  ^ "}"

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- files ---------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- memory --------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> fi kb /. 1024.0)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> 0.0

(* --- set-up time -------------------------------------------------------------- *)

(* Set-up time from process start: spawn this executable in probe mode
   ([--setup-probe WORKLOAD --seed N]), which builds what the workload
   needs before its first request and then writes one byte to stdout;
   the time from spawn to that byte covers exec, runtime and module
   initialisation and the workload's own set-up.  The median of [n]
   probes. *)
let setup_probe ?(n = 7) ~workload ~seed () =
  let once () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-probe"; workload; "--seed"; string_of_int seed |]
        Unix.stdin wr Unix.stderr
    in
    Unix.close wr;
    let buf = Bytes.create 1 in
    let got = Unix.read rd buf 0 1 in
    let t1 = now () in
    Unix.close rd;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when got = 1 -> t1 -. t0
    | _ -> failwith ("set-up probe failed for " ^ workload)
  in
  median (List.init n (fun _ -> once ()))

(* --- host block ----------------------------------------------------------- *)

(* A fixed integer/float kernel, independent of the program under test,
   timed in the same run: its score lets figures from different hosts
   (or a host under different load) be told apart. *)
let calibration_score () =
  let iters = 4_000_000 in
  let run () =
    let x = ref 0x2545F491 and acc = ref 0.0 in
    for i = 1 to iters do
      x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
      acc := !acc +. (Float.of_int (!x land 0xFFFF) *. 1e-5) +. Float.of_int (i land 7)
    done;
    !acc
  in
  let scores =
    List.init 3 (fun _ ->
        let r, dt = time run in
        ignore (Sys.opaque_identity r);
        fi iters /. dt /. 1e6)
  in
  median scores

(* The disk: median time of one small write + fsync in [dir] (the run's
   state directory), the cost that dominates serve-mix latency. *)
let fsync_ms ~dir =
  let path = Filename.concat dir "calibration" in
  let once () =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let (), dt =
      time (fun () ->
          ignore (Unix.write_substring fd "calibration\n" 0 12);
          Unix.fsync fd)
    in
    Unix.close fd;
    dt
  in
  let r = median (List.init 15 (fun _ -> once ())) in
  Sys.remove path;
  r *. 1e3

let nproc () = Domain.recommended_domain_count ()

(* --- the result of one workload run ---------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;  (** operations the run performed and checked *)
  failed : int;
      (** of those: error or busy replies, quarantined candidates,
          outputs failing a correctness check, wrong verdicts *)
  metrics : metric list;
  detail : (string * string) list;
      (** extra fields for the record line, values pre-rendered JSON *)
}

let m name unit_ value = { name; unit_; value }

(* JSON number with every digit; non-finite values cannot be JSON, so
   they are refused loudly rather than rendered. *)
let json_num v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %h" v)

let json_str s = Printf.sprintf "\"%s\"" (Serve.Wire.escape s)

(* The run's context, fixed by the command line. *)
type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** worker domains / clients: the host's core count *)
  state : string;  (** private scratch directory inside the checkout *)
  tamper : bool;  (** self-test: corrupt one output before checking it *)
}

(* Alternation of traced and untraced iterations in a traced run, so
   both halves see the same host conditions. *)
let traced_iteration ctx i = ctx.trace && i mod 2 = 1

(* Relative overhead of the traced iterations over the untraced ones. *)
let overhead_frac ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.0
  | t, u -> (median t /. median u) -. 1.0
