(* The repository benchmark: three workloads measured end to end, and a
   traced mode that breaks each one down by layer.

     bench.exe --workload {sim-nemesis|sim-verify|live-kv}
               --seed N --seconds S --trace {0|1}

   Every layer is measured from outside: the benchmark times calls into
   the libraries' public functions and reads counters they already
   expose (scheduler events, deployment metrics, pool statistics, the
   engine profiler, store metrics, the GC, /proc). Nothing here adds
   tracing inside the libraries. See README.md for the design and the
   layer-to-metric map. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
module Pool = Dds_engine.Pool
module Profile = Dds_profile.Profile
module Monitor = Dds_monitor.Monitor
module Nemesis = Dds_fault.Nemesis
module Causal = Dds_causal.Causal
module Check = Dds_check.Check
module Loop = Dds_runtime_unix.Loop
module Frame = Dds_runtime_unix.Frame
module Placement = Dds_runtime_unix.Placement
module Store = Dds_runtime_unix.Store
module Skew = Dds_workload.Skew

(* ------------------------------------------------------------------ *)
(* Clocks, order statistics, /proc *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank order statistic: an observed sample, never an
   interpolation between two. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The duration d such that samples no longer than d make up the share
   [q] of the samples' total. *)
let time_weighted xs q =
  let a = sorted xs in
  let total = Array.fold_left ( +. ) 0. a in
  let rec go i acc =
    if i >= Array.length a - 1 || acc +. a.(i) >= q *. total then a.(i) else go (i + 1) (acc +. a.(i))
  in
  if Array.length a = 0 then nan else go 0 0.

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = Array.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* "key: value ..." lines of /proc/<pid>/{status,io}. *)
let proc_field pid file key =
  let text = read_file (Printf.sprintf "/proc/%s/%s" pid file) in
  let prefix = key ^ ":" in
  let line = List.find (String.starts_with ~prefix) (String.split_on_char '\n' text) in
  let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
  match String.split_on_char ' ' (String.trim rest) with
  | v :: _ -> float_of_string v
  | [] -> failwith ("bad /proc field " ^ key)

let peak_rss_mb pid = proc_field pid "status" "VmHWM" /. 1024.

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* The contract's metric lists, with units. Both modes print every name
   of their list on every workload; a name a workload has no such work
   for reads 0 (per-layer only — every end-to-end metric is measured on
   every workload). *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("wall_s", "s"); ("ops_per_s", "1/s");
    ("cpu_us_per_op", "us"); ("p50_us", "us"); ("p99_us", "us") ]

let per_layer =
  [ ("sim.events", "count"); ("sim.ns_per_event", "ns"); ("sim.deploy_s", "s");
    ("gc.minor_words_per_event", "words"); ("gc.promoted_words", "words");
    ("gc.major_collections", "count"); ("net.transmit", "count");
    ("net.transmit_per_op", "count"); ("net.delivered", "count"); ("fault.injected", "count");
    ("nemesis.slowest_cell_frac", "ratio"); ("monitor.s", "s"); ("spec.regularity_s", "s");
    ("spec.reads_checked", "count"); ("export.write_s", "s"); ("export.read_s", "s");
    ("export.bytes_per_event", "B"); ("causal.s", "s"); ("check.schedules", "count");
    ("check.schedules_per_s", "1/s"); ("check.minor_words_per_schedule", "words");
    ("engine.busy_frac", "ratio"); ("engine.ceiling", "ratio"); ("engine.speedup", "ratio");
    ("server.user_us_per_op", "us"); ("server.sys_us_per_op", "us");
    ("server.syscalls_per_op", "count"); ("server.bytes_per_op", "B");
    ("server.ctxsw_per_op", "count"); ("store.peer_msgs_per_op", "count");
    ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns"); ("client.rtt_p50_us", "us");
    ("gen.lag_p99_us", "us"); ("live.read_p50_us", "us"); ("live.read_p99_us", "us");
    ("live.write_p99_us", "us"); ("trace.cpu_us_per_op", "us"); ("trace.bytes_per_op", "B");
    ("trace.wall_overhead_frac", "ratio") ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* A human-readable table first, then the one-line JSON result. *)
let emit ~names r =
  let value name = match List.assoc_opt name r.metrics with Some v -> v | None -> 0. in
  List.iter
    (fun (name, unit_) -> Printf.printf "  %-32s %16.6g %s\n" name (value name) unit_)
    names;
  let fields =
    List.map
      (fun (name, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (value name)) unit_)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " fields)

let gate_failures = ref []

(* A failed correctness gate does not stop the run: it is reported on
   stderr and turns the result's [correct] to false. *)
let gate ok what = if not ok then gate_failures := what :: !gate_failures

(* Run [f] repeatedly until [seconds] have elapsed, at least [min]
   times; the list of results in run order. *)
let repeat ~seconds ~min f =
  let t0 = now_s () in
  let rec go i acc =
    if i >= min && now_s () -. t0 >= seconds then List.rev acc else go (i + 1) (f () :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Pace: same-run calibration *)

(* The host this benchmark runs on is shared: its speed drifts by tens
   of percent over minutes, so two runs of identical work disagree even
   after taking medians. The benchmark therefore interleaves a fixed
   piece of its own work — integer arithmetic over a 32 KiB array, no
   allocation, none of the repository's code — with each workload, and
   reports every time at the reference pace: measured time multiplied
   by [pace_ref_ns] over the median pace kernel time of the same run.
   A slower host stretches the workload and the kernel alike; a slower
   program stretches only the workload. *)
let pace_ref_ns = 150_000.
let pace_buf = Domain.DLS.new_key (fun () -> Array.make 4096 0)
let pace_log = ref []
let pace_lock = Mutex.create ()

let pace_work () =
  let buf = Domain.DLS.get pace_buf in
  let x = ref 1 in
  for i = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    buf.(j) <- buf.(j) + i
  done

(* One kernel time in ns, also logged for the run's median. Callable
   from any domain; each samples the CPU it runs on. *)
let pace () =
  let t0 = now_ns () in
  pace_work ();
  let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
  Mutex.protect pace_lock (fun () -> pace_log := dt :: !pace_log);
  dt

let pace_burst n =
  for _ = 1 to n do
    ignore (pace () : float)
  done

(* Set-up takes 0.1 to 10 ms, short enough to fall between two swings of
   the host's speed, so each sample is brought to the reference pace by
   a kernel sample taken just before it, the factor raised to
   [exponent] (see [pieces] for sim-nemesis's 2). *)
let setup_sample ?(exponent = 1.) f =
  let k = pace () in
  snd (timed f) *. ((pace_ref_ns /. k) ** exponent)

let setup_median ?exponent ~reps f = median (Array.init reps (fun _ -> setup_sample ?exponent f))

(* Multiply a time by this to express it at the reference pace. *)
let pace_factor () = pace_ref_ns /. median (Array.of_list !pace_log)

(* Hypervisor steal: time the host ran something else while our vCPUs
   had work, the "steal" column of /proc/stat in USER_HZ ticks. It swings
   from a few percent to a fifth of the VM's time from one minute to the
   next. CPU-time figures exclude it already; wall-clock figures do not. *)
let steal_s () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
    float_of_string steal /. 100.
  | _ -> 0.

(* [f ()] and the share of its wall time stolen from the [busy] vCPUs
   that ran it. *)
let measure_steal ~busy f =
  let s0 = steal_s () and t0 = now_s () in
  let r = f () in
  let share = (steal_s () -. s0) /. (float_of_int busy *. (now_s () -. t0)) in
  (r, Float.min 0.9 (Float.max 0. share))

(* Wall-clock metrics with a stolen [share] taken out; set-up is timed
   outside the measured section and keeps its own value. *)
let unsteal share metrics =
  List.map
    (fun (name, v) ->
      match name with
      | "setup_s" | "peak_rss_mb" | "cpu_us_per_op" -> (name, v)
      | "ops_per_s" -> (name, v /. (1. -. share))
      | _ -> (name, v *. (1. -. share)))
    metrics

(* Prints the end-to-end metrics as measured and returns [final]. *)
let report ~raw final =
  Printf.printf "  as measured: %s\n"
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) raw));
  final

(* Metrics at the reference pace: times scale with the run's pace
   factor raised to [exponent], rates inversely, memory not at all.
   Set-up and the names in [paced] are at the reference pace already. *)
let at_pace ?(paced = []) ?(exponent = 1.) metrics =
  let f = pace_factor () ** exponent in
  Printf.printf "  pace kernel: median %.1f us over %d samples; factor %.4f\n"
    (1e-3 *. median (Array.of_list !pace_log)) (List.length !pace_log) f;
  List.map
    (fun (name, v) ->
      match name with
      | _ when List.mem name paced -> (name, v)
      | "setup_s" | "peak_rss_mb" -> (name, v)
      | "ops_per_s" -> (name, v /. f)
      | _ -> (name, v *. f))
    metrics

(* ------------------------------------------------------------------ *)
(* Simulated workloads: shared pieces *)

module Sync_d = Deployment.Make (Sync_register)
module Es_d = Deployment.Make (Es_register)
module Es_gen = Dds_workload.Generator.Make (Es_d)

(* Phase timing through the simulator's probe hook: deployment
   construction and rng seeding, summed over all domains. *)
let probe_ns = Hashtbl.create 4
let probe_stack = Domain.DLS.new_key (fun () -> ref [])

let install_probe () =
  List.iter (fun p -> Hashtbl.replace probe_ns p (Atomic.make 0)) [ "deploy"; "rng" ];
  Probe.set_handler
    (Some
       {
         Probe.enter =
           (fun _ ->
             let st = Domain.DLS.get probe_stack in
             st := now_ns () :: !st);
         exit =
           (fun name ->
             let st = Domain.DLS.get probe_stack in
             match !st with
             | t0 :: rest -> (
               st := rest;
               match Hashtbl.find_opt probe_ns name with
               | Some a -> ignore (Atomic.fetch_and_add a (Int64.to_int (Int64.sub (now_ns ()) t0)))
               | None -> ())
             | [] -> ());
       })

let probe_s name =
  match Hashtbl.find_opt probe_ns name with
  | Some a -> float_of_int (Atomic.get a) *. 1e-9
  | None -> 0.

(* Busy share and GC totals from a profiler recording. *)
let profile_metrics profile =
  let s = Profile.summary profile in
  ( [ ("engine.busy_frac", s.Profile.s_busy_fraction);
      ("gc.promoted_words", s.Profile.s_promoted_words);
      ("gc.major_collections", float_of_int s.Profile.s_major_cols) ],
    s.Profile.s_minor_words )

let completed_ops h =
  List.length (History.completed_reads h) + List.length (History.completed_writes h)

(* ------------------------------------------------------------------ *)
(* sim-nemesis: the E24 nemesis matrix, engine at one worker *)

let nm_n = 20
let nm_delta = 3
let nm_horizon = 2000
let nm_drain = 20 * nm_delta
let nm_chunk = 50 (* simulated ticks between checkpoints *)

(* The matrix of [Sweep.nemesis_matrix]: six plans against sync and es,
   in the sweep's row order. *)
let nemesis_plans ~n ~delta ~horizon =
  let mid = horizon / 2 and third = horizon / 3 in
  [ ("within", [ Nemesis.dup ~copies:2 (Nemesis.during ~from_:1 ~until_:horizon) ]);
    ("within", [ Nemesis.crash ~recover:(2 * delta) ~k:1 third ]);
    ("within", [ Nemesis.storm ~k:1 mid ]);
    ( "breaking",
      [ Nemesis.partition
          ~a:(List.init ((n / 2) + 1) Fun.id)
          ~b:(List.init (n - (n / 2) - 1) (fun i -> (n / 2) + 1 + i))
          ~symmetric:false
          (Nemesis.during ~from_:(mid - 5) ~until_:(mid + 5)) ] );
    ( "breaking",
      [ Nemesis.delay ~extra:(4 * delta)
          (Nemesis.during ~from_:(third - 2) ~until_:(2 * third)) ] );
    ("breaking", [ Nemesis.crash ~k:((n / 2) + 1) mid ]) ]

(* What the verdict column must show on any seed. Within-model rows
   are clean: Theorems 1 and 4 tolerate their faults. A breaking plan
   only may break its register; whether it does depends on the seed
   (the es register under the over-delta delay is flagged on most seeds
   and clean on some), so the column must flag at least one breaking
   row, which shows the monitors are live, but no particular one. *)
let verdicts_hold cells flags =
  List.for_all2 (fun (profile, _, _) f -> profile <> "within" || not f) cells flags
  && List.exists2 (fun (profile, _, _) f -> profile = "breaking" && f) cells flags

type cell_out = {
  c_flagged : bool;
  c_injected : int;
  c_ops : int;
  c_events : int;
  c_transmit : int;
  c_delivered : int;
  c_wall : float;
  c_pieces : float array;  (** wall seconds between checkpoints *)
  c_cpu_pieces : float array;
  c_piece_pace : float array;  (** each piece's pace factor *)
  c_monitor_s : float;
  c_regularity_s : float;
  c_reads_checked : int;
}

(* Wall and CPU stamps, newest first, taken at the start of a cell, by
   checkpoint events every [nm_chunk] simulated ticks, and at its end.
   Consecutive stamps bound pieces of identical work in every rep of a
   run (same seed), which is what lets the run take a median per piece.
   Each checkpoint closes a piece, samples the pace kernel and opens the
   next piece, so the kernel lies outside every piece; the cell's start
   and end sample it too, so every piece has a sample on either side.
   The host's speed changes within seconds, so each piece is brought to
   the reference pace by its own two neighbouring samples. *)
let stamps : (float * float) list ref = ref []
let kernels : float list ref = ref []
let stamp () = stamps := (now_s (), cpu_s ()) :: !stamps
let sample () = kernels := pace () :: !kernels

let checkpoint () =
  stamp ();
  sample ();
  stamp ()

let start_cell () =
  stamps := [];
  kernels := [];
  sample ();
  stamp ()

let end_cell () =
  stamp ();
  sample ()

(* Wall pieces, CPU pieces and each piece's pace factor. Stamps come in
   (open, close) pairs; kernel [k] precedes piece [k].

   The factor is squared. The matrix is memory-bound, with a 500 MB heap
   under GC, and when the host slows it slows about twice as much, in
   log terms, as the cache-resident kernel. Over 22 consecutive reps,
   the least-squares slope of log(rep time) on log(kernel time) was 1.8.
   Recomputed with the square, six recorded sets of 5 and 10 runs
   spread 3-9% on wall_s, against 7-26% with the plain factor. *)
let pieces () =
  let st = Array.of_list (List.rev !stamps) and ks = Array.of_list (List.rev !kernels) in
  let n = Array.length st / 2 in
  ( Array.init n (fun k -> fst st.((2 * k) + 1) -. fst st.(2 * k)),
    Array.init n (fun k -> snd st.((2 * k) + 1) -. snd st.(2 * k)),
    Array.init n (fun k -> (pace_ref_ns /. ((ks.(k) +. ks.(k + 1)) /. 2.)) ** 2.) )

(* Wraps a deployment so the harness's run leaves its deployment behind
   for the counters to be read, and arms the checkpoints. The
   checkpoint events touch no simulation state, so the run's outcome is
   unchanged. One worker only: the slots are global. *)
module Spy (D : Deployment.S) = struct
  include D

  let last : t option ref = ref None

  let create cfg params =
    let d = D.create cfg params in
    last := Some d;
    let sched = D.scheduler d in
    let rec arm t =
      if t < nm_horizon + nm_drain then begin
        ignore (Scheduler.schedule_at sched (Time.of_int t) checkpoint : Scheduler.token);
        arm (t + nm_chunk)
      end
    in
    arm nm_chunk;
    d
end

module Cell (D : Deployment.S) = struct
  module S = Spy (D)
  module H = Dds_fault.Harness.Make (S)
  module I = Dds_fault.Injector.Make (D)

  let run ~traced ~mon cfg params plan =
    let spec = Dds_fault.Harness.default_spec ~monitor:mon ~horizon:nm_horizon ~drain:nm_drain () in
    start_cell ();
    let o, wall = timed (fun () -> H.run cfg params spec plan) in
    end_cell ();
    let c_pieces, c_cpu_pieces, c_piece_pace = pieces () in
    let d = match !S.last with Some d -> d | None -> failwith "harness built no deployment" in
    S.last := None;
    let m = D.metrics d in
    let monitor_s, regularity_s, reads_checked =
      if traced then
        let evs = Event.events (D.events d) in
        let _, monitor_s = timed (fun () -> Monitor.run mon evs) in
        let report, regularity_s = timed (fun () -> D.regularity d) in
        (monitor_s, regularity_s, report.Regularity.checked_reads)
      else (0., 0., 0)
    in
    {
      c_flagged = o.Dds_fault.Hunt.violations <> [];
      c_injected = o.Dds_fault.Hunt.injected;
      c_ops = completed_ops (D.history d);
      c_events = Scheduler.events_fired (D.scheduler d);
      c_transmit = Metrics.get m "net.transmit";
      c_delivered = Metrics.get m "net.delivered";
      c_wall = wall;
      c_pieces;
      c_cpu_pieces;
      c_piece_pace;
      c_monitor_s = monitor_s;
      c_regularity_s = regularity_s;
      c_reads_checked = reads_checked;
    }

  (* The set-up a harness run performs before its first tick: build
     the deployment and arm the plan. *)
  let build cfg params plan =
    let d = D.create cfg params in
    ignore (I.install ~rng:(Rng.split (D.workload_rng d)) d plan)
end

module Sync_cell = Cell (Sync_d)
module Es_cell = Cell (Es_d)

let nemesis_monitors ~n ~delta =
  let base = Monitor.default ~n ~delta in
  let sync =
    { base with Monitor.churn_bound = Some (1.0 /. (3.0 *. float_of_int delta)); inversions = false }
  in
  let es =
    { base with
      Monitor.churn_bound = Some (1.0 /. (3.0 *. float_of_int delta *. float_of_int n));
      majority = true;
      inversions = false }
  in
  (sync, es)

let nemesis_cells () =
  List.concat_map
    (fun (profile, plan) -> [ (profile, plan, "sync"); (profile, plan, "es") ])
    (nemesis_plans ~n:nm_n ~delta:nm_delta ~horizon:nm_horizon)

let nemesis_cfg seed =
  Deployment.default_config ~seed ~n:nm_n ~delay:(Delay.synchronous ~delta:nm_delta) ~churn_rate:0.0

let run_nemesis_cell ~traced ~seed (_, plan, proto) =
  let sync_mon, es_mon = nemesis_monitors ~n:nm_n ~delta:nm_delta in
  let cfg = nemesis_cfg seed in
  if proto = "sync" then
    Sync_cell.run ~traced ~mon:sync_mon cfg (Sync_register.default_params ~delta:nm_delta) plan
  else Es_cell.run ~traced ~mon:es_mon cfg (Es_register.default_params ~n:nm_n) plan

type rep = {
  r_wall : float;
  r_cpu : float;
  r_unstolen : float;  (** share of the rep's wall time its vCPUs really ran *)
  r_ops : int;
  r_requests : float array;  (** per-request (cell or job) wall seconds *)
  r_batch : float array * float;  (** the pool batch's job times and its wall *)
  r_pieces : float array array;  (** per request: wall seconds of each piece *)
  r_cpu_pieces : float array array;  (** the same in CPU seconds (sim-nemesis) *)
  r_piece_pace : float array array;  (** each piece's pace factor (sim-nemesis) *)
  r_events : int;
  r_transmit : int;
  r_delivered : int;
  r_injected : int;
  r_monitor_s : float;
  r_regularity_s : float;
  r_reads_checked : int;
  r_stage : (string * float) list;  (** extra per-layer figures *)
}

let nemesis_rep ~pool ~traced ~seed ~reference =
  let cells = nemesis_cells () in
  let cpu0 = cpu_s () in
  let (outs, wall), stolen =
    measure_steal ~busy:1 (fun () ->
        timed (fun () ->
            Pool.map pool
              ~key:(fun (_, plan, proto) ->
                Printf.sprintf "nemesis:%s:%s" proto (Nemesis.to_string plan))
              ~f:(run_nemesis_cell ~traced ~seed) cells))
  in
  (* The traced run re-times the monitors and the regularity check after
     each cell; that is the benchmark's work, not the matrix's. *)
  let rechecks = List.fold_left (fun acc c -> acc +. c.c_monitor_s +. c.c_regularity_s) 0. outs in
  let wall = wall -. rechecks and cpu = cpu_s () -. cpu0 -. rechecks in
  let flags = List.map (fun c -> c.c_flagged) outs in
  gate (verdicts_hold cells flags)
    "sim-nemesis: a within-model row is flagged, or no breaking row is";
  let column = (flags, List.map (fun c -> c.c_injected) outs) in
  (match !reference with
  | None -> reference := Some column
  | Some r -> gate (r = column) "sim-nemesis: per-cell verdicts or injected counts did not repeat");
  let total f = List.fold_left (fun acc c -> acc + f c) 0 outs in
  {
    r_wall = wall;
    r_cpu = cpu;
    r_unstolen = 1. -. stolen;
    r_ops = total (fun c -> c.c_ops);
    r_requests = Array.of_list (List.map (fun c -> c.c_wall) outs);
    r_batch = (Array.of_list (List.map (fun c -> c.c_wall) outs), wall);
    r_pieces = Array.of_list (List.map (fun c -> c.c_pieces) outs);
    r_cpu_pieces = Array.of_list (List.map (fun c -> c.c_cpu_pieces) outs);
    r_piece_pace = Array.of_list (List.map (fun c -> c.c_piece_pace) outs);
    r_events = total (fun c -> c.c_events);
    r_transmit = total (fun c -> c.c_transmit);
    r_delivered = total (fun c -> c.c_delivered);
    r_injected = total (fun c -> c.c_injected);
    r_monitor_s = List.fold_left (fun acc c -> acc +. c.c_monitor_s) 0. outs;
    r_regularity_s = List.fold_left (fun acc c -> acc +. c.c_regularity_s) 0. outs;
    r_reads_checked = total (fun c -> c.c_reads_checked);
    r_stage = [];
  }

let nemesis_setup ~seed () =
  let cfg = nemesis_cfg seed in
  List.iter
    (fun (_, plan, proto) ->
      if proto = "sync" then Sync_cell.build cfg (Sync_register.default_params ~delta:nm_delta) plan
      else Es_cell.build cfg (Es_register.default_params ~n:nm_n) plan)
    (nemesis_cells ())

(* ------------------------------------------------------------------ *)
(* sim-verify: seeded es runs audited in memory, then a bounded check *)

let vf_n = 10
let vf_delta = 3
let vf_horizon = 500
let vf_churn = 0.005 (* below the es bound 1/(3 delta n) = 0.011 *)

let verify_jobs = 2 (* the VM's core count; the pool's width *)

let verify_monitor =
  let base = Monitor.default ~n:vf_n ~delta:vf_delta in
  { base with
    Monitor.churn_bound = Some (1.0 /. (3.0 *. float_of_int vf_delta *. float_of_int vf_n));
    majority = true;
    inversions = false }

let check_config =
  { Dds_check.Schedule.proto = "es"; nodes = 3; delta = 1; writes = 1; reads = 1; joins = 0;
    quorum = None; drop_budget = 1; crash_budget = 0; depth_bound = 30; preempt_bound = 3 }

type job_out = {
  j_ok : bool;
  j_ops : int;
  j_events : int;
  j_transmit : int;
  j_delivered : int;
  j_trace_events : int;
  j_bytes : int;
  j_wall : float;
  j_stages : (string * float) list;  (** traced runs only *)
  j_reads_checked : int;
}

(* A seeded es system with its churn and workload scheduled, not yet run. *)
let verify_system seed =
  let cfg =
    { (Deployment.default_config ~seed ~n:vf_n ~delay:(Delay.synchronous ~delta:vf_delta)
         ~churn_rate:vf_churn)
      with
      Deployment.events_enabled = true }
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:vf_n) in
  Es_d.start_churn d ~until:(Time.of_int vf_horizon);
  Es_gen.run d
    { (Dds_workload.Generator.default ~until:(Time.of_int vf_horizon)) with
      Dds_workload.Generator.read_rate = 2.0 };
  d

let verify_seeds seed = List.init (2 * verify_jobs) (fun i -> (seed * 1000) + i)

let verify_job ~traced seed =
  let t_start = now_s () in
  let stage_t = ref t_start and stages = ref [] in
  let stage name =
    if traced then begin
      let t = now_s () in
      stages := (name, t -. !stage_t) :: !stages;
      stage_t := t
    end
  in
  let d = verify_system seed in
  Es_d.run_until d (Time.of_int (vf_horizon + (20 * vf_delta)));
  stage "sim";
  let evs = Event.events (Es_d.events d) in
  let text = Export.jsonl_of_events evs in
  stage "export.write";
  let parsed = match Export.events_of_jsonl text with Ok e -> e | Error e -> failwith e in
  stage "export.read";
  let findings = Monitor.run verify_monitor parsed in
  stage "monitor";
  let report = Regularity.check (Replay.history_of_events ~initial:(Value.initial 0) parsed) in
  stage "regularity";
  let causal = Causal.analyze parsed in
  stage "causal";
  let exact =
    List.for_all
      (fun a ->
        Causal.(a.a_compute + a.a_transit + a.a_quorum + a.a_timer + a.a_retry = a.a_latency))
      causal.Causal.r_ops
  in
  let m = Es_d.metrics d in
  {
    j_ok =
      findings = [] && Regularity.is_ok report && exact && List.length parsed = List.length evs;
    j_ops = completed_ops (Es_d.history d);
    j_events = Scheduler.events_fired (Es_d.scheduler d);
    j_transmit = Metrics.get m "net.transmit";
    j_delivered = Metrics.get m "net.delivered";
    j_trace_events = List.length evs;
    j_bytes = String.length text;
    j_wall = now_s () -. t_start;
    j_stages = !stages;
    j_reads_checked = report.Regularity.checked_reads;
  }

let verify_rep ~pool ~traced ~seed =
  let seeds = verify_seeds seed in
  let cpu0 = cpu_s () in
  let steal0 = steal_s () in
  let t0 = now_s () in
  let outs = Pool.map pool ~key:(Printf.sprintf "verify:seed=%d") ~f:(verify_job ~traced) seeds in
  let t1 = now_s () in
  let minor () = Option.map (fun p -> (Profile.summary p).Profile.s_minor_words) (Pool.profile pool) in
  let minor0 = minor () in
  let check =
    match Check.run ~pool (Protocol.find_exn "es") check_config with
    | Ok o -> o
    | Error e -> failwith ("check: " ^ e)
  in
  let t2 = now_s () in
  let stolen = (steal_s () -. steal0) /. (float_of_int verify_jobs *. (t2 -. t0)) in
  let cpu = cpu_s () -. cpu0 in
  let minor1 = minor () in
  List.iter2
    (fun s j ->
      gate j.j_ok (Printf.sprintf "sim-verify: seed %d did not audit REGULAR with exact attribution" s))
    seeds outs;
  gate (check.Check.violation = None) "sim-verify: bounded check of es is not CLEAN";
  let total f = List.fold_left (fun acc j -> acc + f j) 0 outs in
  let stage name =
    List.fold_left (fun acc j -> acc +. Option.value ~default:0. (List.assoc_opt name j.j_stages)) 0. outs
  in
  let schedules = check.Check.stats.Check.schedules in
  let check_s = t2 -. t1 in
  let minor_per_schedule =
    match (minor0, minor1) with Some a, Some b -> ratio (b -. a) (float_of_int schedules) | _ -> 0.
  in
  {
    r_wall = t2 -. t0;
    r_cpu = cpu;
    r_unstolen = 1. -. Float.min 0.9 (Float.max 0. stolen);
    r_ops = total (fun j -> j.j_ops);
    r_requests = Array.of_list (List.map (fun j -> j.j_wall) outs @ [ check_s ]);
    r_batch = (Array.of_list (List.map (fun j -> j.j_wall) outs), t1 -. t0);
    r_pieces = Array.of_list (List.map (fun j -> [| j.j_wall |]) outs @ [ [| check_s |] ]);
    r_cpu_pieces = [||];
    r_piece_pace = [||];
    r_events = total (fun j -> j.j_events);
    r_transmit = total (fun j -> j.j_transmit);
    r_delivered = total (fun j -> j.j_delivered);
    r_injected = 0;
    r_monitor_s = stage "monitor";
    r_regularity_s = stage "regularity";
    r_reads_checked = total (fun j -> j.j_reads_checked);
    r_stage =
      [ ("export.write_s", stage "export.write"); ("export.read_s", stage "export.read");
        ( "export.bytes_per_event",
          ratio (float_of_int (total (fun j -> j.j_bytes)))
            (float_of_int (total (fun j -> j.j_trace_events))) );
        ("trace.bytes", float_of_int (total (fun j -> j.j_bytes)));
        ("causal.s", stage "causal"); ("check.schedules", float_of_int schedules);
        ("check.schedules_per_s", ratio (float_of_int schedules) check_s);
        ("check.minor_words_per_schedule", minor_per_schedule) ];
  }

(* Engine start-up (spawn the worker domains, one empty batch through
   them) and the construction of the batch's simulated systems. *)
let verify_setup ~seed () =
  let pool = Pool.create ~jobs:verify_jobs () in
  ignore
    (Pool.run pool
       (List.init verify_jobs (fun i -> { Pool.key = string_of_int i; run = (fun () -> ()) })));
  Pool.shutdown pool;
  List.iter (fun s -> ignore (verify_system s)) (verify_seeds seed)

(* The pace kernel on every worker of the pool. *)
let pace_pool pool n =
  ignore
    (Pool.run pool
       (List.init (Pool.jobs pool) (fun i ->
            { Pool.key = Printf.sprintf "pace:%d" i; run = (fun () -> pace_burst n) })))

(* ------------------------------------------------------------------ *)
(* Simulated workloads: running them *)

(* Every rep of a run repeats the same work (same seeds), piece for
   piece. A shared host slows some pieces of some reps; the median over
   reps of each piece drops those bursts, and a request's robust time is
   the sum of its pieces' medians. *)
let robust_pieces reps get =
  let per_rep = Array.of_list (List.map get reps) in
  Array.mapi
    (fun c pieces -> Array.mapi (fun k _ -> median (Array.map (fun r -> r.(c).(k)) per_rep)) pieces)
    per_rep.(0)

let robust reps get = Array.map sum (robust_pieces reps get)

(* sim-nemesis runs one worker, so its wall and CPU time are the sums of
   its cells' robust times; sim-verify's two workers overlap, so it takes
   the median over its (short, numerous) reps instead. *)
(* [final]: with steal taken out and, on sim-nemesis, each piece at the
   reference pace; otherwise as measured. *)
let sim_end_to_end ~nemesis ~setup_s ~peak_mb ~final reps =
  let steal r = if final then r.r_unstolen else 1. in
  let paced r pieces =
    if final && nemesis then
      Array.mapi (fun c -> Array.mapi (fun k x -> x *. r.r_piece_pace.(c).(k))) pieces
    else pieces
  in
  let med f = median (Array.of_list (List.map f reps)) in
  let pieces =
    robust_pieces reps (fun r -> paced r (Array.map (Array.map (fun x -> x *. steal r)) r.r_pieces))
  in
  let requests = Array.map sum pieces in
  (* On sim-nemesis the median is over its 50-tick steps, weighted by
     time: most steps belong to tiny cells whose sub-millisecond times
     swing with the host far more than the matrix does. Its p99 is over
     the 12 cells, so it is the slowest cell, the matrix's critical
     path; the time-weighted p99 step sat in GC-heavy steps and spread
     twice as wide as the matrix. *)
  let quantile =
    if nemesis then
      let steps = Array.concat (Array.to_list pieces) in
      fun cells q -> if q = 0.5 then time_weighted steps q else quantile cells q
    else quantile
  in
  let ops = float_of_int (List.hd reps).r_ops in
  let wall, cpu =
    if nemesis then (sum requests, sum (robust reps (fun r -> paced r r.r_cpu_pieces)))
    else (med (fun r -> r.r_wall *. steal r), med (fun r -> r.r_cpu))
  in
  [ ("setup_s", setup_s);
    ("peak_rss_mb", peak_mb);
    ("wall_s", wall);
    ("ops_per_s", ratio ops wall);
    ("cpu_us_per_op", 1e6 *. ratio cpu ops);
    ("p50_us", 1e6 *. quantile requests 0.5);
    ("p99_us", 1e6 *. quantile requests 0.99) ]

let print_requests label reps =
  let requests = robust reps (fun r -> r.r_pieces) in
  Printf.printf
    "  %d rep(s); %d %s times (median over reps, piece by piece): p50 %.1f ms, max %.1f ms; stolen %.1f%%\n"
    (List.length reps) (Array.length requests) label
    (1e3 *. quantile requests 0.5)
    (1e3 *. quantile requests 1.0)
    (100. *. (1. -. median (Array.of_list (List.map (fun r -> r.r_unstolen) reps))))

let run_sim ~workload ~seed ~seconds ~trace =
  let nemesis = workload = "sim-nemesis" in
  let jobs = if nemesis then 1 else verify_jobs in
  let reference = ref None in
  let rep ~pool ~traced () =
    if nemesis then nemesis_rep ~pool ~traced ~seed ~reference
    else verify_rep ~pool ~traced ~seed
  in
  let setup () = if nemesis then nemesis_setup ~seed () else verify_setup ~seed () in
  (* A request is one cell or one verification job; it fails when a
     correctness gate on it fails. *)
  let attempted reps = List.fold_left (fun acc r -> acc + Array.length r.r_requests) 0 reps in
  if not trace then begin
    pace_burst 10;
    (* The sims' set-up is memory-bound and slows with the host's memory
       traffic, which the cache-resident pace kernel barely sees: in one
       process its raw time moved between 85 and 160 us within seconds.
       Samples are therefore taken before the first rep and again after
       every rep, so their median spans the whole run as the workload's
       figures do. *)
    let setup_samples = ref [] in
    let take_setup n =
      for _ = 1 to n do
        setup_samples := setup_sample ~exponent:(if nemesis then 2. else 1.) setup :: !setup_samples
      done
    in
    take_setup 21;
    (* The peak of one pass, read after the first rep: later reps only
       add the allocator's fragmentation, and their number depends on
       the host's speed. *)
    let peak_mb = ref 0. in
    let reps =
      Pool.with_pool ~jobs (fun pool ->
          repeat ~seconds ~min:3 (fun () ->
              pace_pool pool 10;
              let r = rep ~pool ~traced:false () in
              if !peak_mb = 0. then peak_mb := peak_rss_mb "self";
              take_setup 11;
              r))
    in
    let setup_s = median (Array.of_list !setup_samples) in
    let peak_mb = !peak_mb in
    print_requests (if nemesis then "cell" else "job") reps;
    ( report
        ~raw:(sim_end_to_end ~nemesis ~setup_s ~peak_mb ~final:false reps)
        (at_pace
           ~paced:(if nemesis then [ "wall_s"; "ops_per_s"; "cpu_us_per_op"; "p50_us"; "p99_us" ] else [])
           (sim_end_to_end ~nemesis ~setup_s ~peak_mb ~final:true reps)), attempted reps, List.length !gate_failures)
  end
  else begin
    (* Untraced baseline first (after one warm-up rep), then the same
       work under the profiler, the probe handler and per-stage timers. *)
    let base =
      Pool.with_pool ~jobs (fun pool ->
          ignore (rep ~pool ~traced:false ());
          repeat ~seconds:(seconds /. 3.) ~min:1 (rep ~pool ~traced:false))
    in
    let profile = Profile.create ~workers:jobs () in
    install_probe ();
    let traced =
      Pool.with_pool ~jobs ~profile (fun pool ->
          repeat ~seconds:(seconds /. 3.) ~min:1 (rep ~pool ~traced:true))
    in
    let engine, minor_words = profile_metrics profile in
    let n = float_of_int (List.length traced) in
    let per_rep f = List.fold_left (fun acc r -> acc +. f r) 0. traced /. n in
    (* The Amdahl view of one batch: its total job time over its slowest
       job (the ceiling on any speedup) and over its wall (the speedup
       achieved). *)
    let batch f = per_rep (fun r -> let jobs, w = r.r_batch in f jobs w) in
    let slowest jobs = Array.fold_left Float.max 0. jobs in
    let events = per_rep (fun r -> float_of_int r.r_events) in
    let ops = per_rep (fun r -> float_of_int r.r_ops) in
    let cpu_per_op reps =
      1e6 *. ratio (List.fold_left (fun a r -> a +. r.r_cpu) 0. reps)
        (float_of_int (List.fold_left (fun a r -> a + r.r_ops) 0 reps))
    in
    let wall_per_rep reps =
      List.fold_left (fun a r -> a +. r.r_wall) 0. reps /. float_of_int (List.length reps)
    in
    let stage name = per_rep (fun r -> Option.value ~default:0. (List.assoc_opt name r.r_stage)) in
    let metrics =
      engine
      @ [ ("sim.events", events);
          ("sim.ns_per_event", 1e9 *. ratio (per_rep (fun r -> r.r_wall)) events);
          ("sim.deploy_s", probe_s "deploy" /. n);
          ("gc.minor_words_per_event", ratio (minor_words /. n) events);
          ("net.transmit", per_rep (fun r -> float_of_int r.r_transmit));
          ("net.transmit_per_op", ratio (per_rep (fun r -> float_of_int r.r_transmit)) ops);
          ("net.delivered", per_rep (fun r -> float_of_int r.r_delivered));
          ("fault.injected", per_rep (fun r -> float_of_int r.r_injected));
          ( "nemesis.slowest_cell_frac",
            if nemesis then batch (fun jobs _ -> ratio (slowest jobs) (sum jobs)) else 0. );
          ("engine.ceiling", batch (fun jobs _ -> ratio (sum jobs) (slowest jobs)));
          ("engine.speedup", batch (fun jobs w -> ratio (sum jobs) w));
          ("monitor.s", per_rep (fun r -> r.r_monitor_s));
          ("spec.regularity_s", per_rep (fun r -> r.r_regularity_s));
          ("spec.reads_checked", per_rep (fun r -> float_of_int r.r_reads_checked));
          ("trace.cpu_us_per_op", cpu_per_op traced -. cpu_per_op base);
          ("trace.bytes_per_op", ratio (stage "trace.bytes") ops);
          ("trace.wall_overhead_frac", ratio (wall_per_rep traced) (wall_per_rep base) -. 1.) ]
      @ List.map
          (fun k -> (k, stage k))
          [ "export.write_s"; "export.read_s"; "export.bytes_per_event"; "causal.s";
            "check.schedules"; "check.schedules_per_s"; "check.minor_words_per_schedule" ]
    in
    if nemesis then begin
      (* Per-cell timers: the slowest-cell share is the Amdahl bound on
         any multi-worker speedup of the matrix. *)
      let cells = nemesis_cells () in
      let last = List.hd (List.rev traced) in
      Array.iteri
        (fun i w ->
          let profile, plan, proto = List.nth cells i in
          Printf.printf "  cell %-44s %-8s %-4s %8.1f ms\n" (Nemesis.to_string plan) profile proto
            (1e3 *. w))
        last.r_requests;
      (* The benchmark runs the matrix's cells itself, to time them and
         read their counters; the library's own matrix must agree row
         for row. *)
      let rows =
        Dds_workload.Sweep.nemesis_matrix ~n:nm_n ~delta:nm_delta ~horizon:nm_horizon ~seed ()
      in
      gate
        (Some
           ( List.map (fun r -> r.Dds_workload.Sweep.nm_flagged) rows,
             List.map (fun r -> r.Dds_workload.Sweep.nm_injected) rows )
        = !reference)
        "sim-nemesis: the benchmark's cells disagree with Sweep.nemesis_matrix"
    end;
    (metrics, attempted base + attempted traced, List.length !gate_failures)
  end

(* ------------------------------------------------------------------ *)
(* live-kv: a keyed wire-v2 store over loopback TCP *)

module S_es = Store.Make (Es_register)

let lv_nodes = 3
let lv_shards = 2
let lv_keys = 4096
let lv_skew = 1.0
let lv_write_ratio = 0.1
let lv_rate = 4000. (* open-loop offered load, ops/s *)
let lv_window = 8 (* closed-loop clients *)

let placement = Placement.all ~nodes:lv_nodes ~shards:lv_shards

let bind_ephemeral () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> (fd, p) | _ -> assert false

type server = {
  pid : int;
  ctl : Unix.file_descr;  (** commands to the server *)
  rep : in_channel;  (** its one-line answers *)
  ports : int array;
}

(* One forked process hosts every node of the mesh on one loop. It
   answers 's' with "user sys peer_msgs" and exits on 'q'. *)
let trace_path dir i = Filename.concat dir (Printf.sprintf "node%d.jsonl" i)

let start_server ~trace_dir =
  let socks = Array.init lv_nodes (fun _ -> bind_ephemeral ()) in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (try
       let loop = Loop.create () in
       let epoch_ms = Store.default_epoch_ms () in
       let stores =
         Array.init lv_nodes (fun i ->
             S_es.create ~loop
               { Store.self = i;
                 addrs;
                 placement;
                 join = false;
                 initial_value = 0;
                 epoch_ms;
                 events_enabled = trace_dir <> None;
                 trace_path = Option.map (fun dir -> trace_path dir i) trace_dir;
                 listen_fd = Some (fst socks.(i)) }
               (fun _ -> Es_register.default_params ~n:lv_nodes))
       in
       let reply s = ignore (Unix.write_substring rep_w s 0 (String.length s)) in
       let rec when_meshed () =
         let up =
           Array.for_all
             (fun st ->
               List.for_all
                 (fun peer -> peer = S_es.self_i st || S_es.link_ready st peer)
                 (List.init lv_nodes Fun.id))
             stores
         in
         if up then reply "ready\n" else ignore (Loop.after_ms loop 1 when_meshed : unit -> unit)
       in
       when_meshed ();
       let cmd = Bytes.create 1 in
       Loop.watch_read loop ctl_r (fun () ->
           match Unix.read ctl_r cmd 0 1 with
           | 1 when Bytes.get cmd 0 = 's' ->
             let t = Unix.times () in
             let msgs =
               Array.fold_left
                 (fun acc st -> acc + Metrics.get (S_es.metrics st) "net.transmit")
                 0 stores
             in
             reply (Printf.sprintf "%.6f %.6f %d\n" t.Unix.tms_utime t.Unix.tms_stime msgs)
           | _ ->
             Array.iter S_es.shutdown stores;
             Loop.stop loop);
       Loop.run loop
     with _ -> ());
    Unix._exit 0
  | pid ->
    Array.iter (fun (fd, _) -> Unix.close fd) socks;
    Unix.close ctl_r;
    Unix.close rep_w;
    let rep = Unix.in_channel_of_descr rep_r in
    if input_line rep <> "ready" then failwith "server did not come up";
    { pid; ctl = ctl_w; rep; ports = Array.map snd addrs }

let stop_server s =
  (try ignore (Unix.write_substring s.ctl "q" 0 1) with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  Unix.close s.ctl;
  close_in_noerr s.rep

type server_sample = {
  user : float;
  sys : float;
  peer_msgs : float;
  syscalls : float;
  bytes : float;
  ctxsw : float;
}

let sample_server s =
  ignore (Unix.write_substring s.ctl "s" 0 1);
  let line = input_line s.rep in
  let user, sys, msgs = Scanf.sscanf line "%f %f %d" (fun u y m -> (u, y, m)) in
  let pid = string_of_int s.pid in
  let f = proc_field pid in
  {
    user;
    sys;
    peer_msgs = float_of_int msgs;
    syscalls = f "io" "syscr" +. f "io" "syscw";
    bytes = f "io" "rchar" +. f "io" "wchar";
    ctxsw = f "status" "voluntary_ctxt_switches" +. f "status" "nonvoluntary_ctxt_switches";
  }

let diff a b =
  { user = b.user -. a.user; sys = b.sys -. a.sys; peer_msgs = b.peer_msgs -. a.peer_msgs;
    syscalls = b.syscalls -. a.syscalls; bytes = b.bytes -. a.bytes; ctxsw = b.ctxsw -. a.ctxsw }

(* --- the load generator: two connections, exact latency samples ----- *)

type op = { o_write : bool; o_key : int; o_data : int; o_stamp : int64 (* ns: send or due time *) }

type conn = {
  fd : Unix.file_descr;
  df : Wire.deframer;
  inflight : (int, op) Hashtbl.t;
  mutable next_req : int;
}

type gen = {
  conns : conn array;  (** 0: node 0 (the writer of every shard); 1: node 1 *)
  rng : Rng.t;
  sampler : Skew.sampler;
  mutable datum : int;
  written : (int, int) Hashtbl.t;  (** datum -> shard it was written to *)
  mutable sent : int;
  mutable acked : int;
  mutable failed : int;
  mutable bad_reads : int;
  mutable encode_ns : int64;
  mutable decode_ns : int64;
  mutable codec_ops : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c = { fd; df = Wire.deframer (); inflight = Hashtbl.create 64; next_req = 0 } in
  let hello = Wire.frame (Frame.buf_client_hello ~version:Wire.v2 ()) in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  c

let chunk = Bytes.create 65536

(* Blocking read of one frame (used for the handshake only). *)
let rec wait_frame c =
  match Wire.next_frame c.df with
  | Some p -> p
  | None ->
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "server closed the connection";
    Wire.feed c.df chunk n;
    wait_frame c

let new_gen ~seed ports =
  let conns = Array.map connect [| ports.(0); ports.(1) |] in
  Array.iter
    (fun c ->
      match Frame.decode ~version:Wire.v2 (wait_frame c) with
      | Frame.Hello _ -> ()
      | _ -> failwith "no handshake ack")
    conns;
  let rng = Rng.create ~seed in
  {
    conns;
    rng;
    sampler = Skew.sampler ~rng:(Rng.split rng) ~keys:lv_keys ~s:lv_skew;
    datum = 0;
    written = Hashtbl.create 4096;
    sent = 0;
    acked = 0;
    failed = 0;
    bad_reads = 0;
    encode_ns = 0L;
    decode_ns = 0L;
    codec_ops = 0;
  }

let draw_op g ~stamp =
  let key, _ = Skew.draw g.sampler in
  if Rng.float g.rng 1.0 < lv_write_ratio then begin
    g.datum <- g.datum + 1;
    Hashtbl.replace g.written g.datum (Placement.route placement ~key);
    { o_write = true; o_key = key; o_data = g.datum; o_stamp = stamp }
  end
  else { o_write = false; o_key = key; o_data = 0; o_stamp = stamp }

(* Writes go to node 0, every shard's writer; reads to either node. *)
let send g op =
  let c = if op.o_write then g.conns.(0) else g.conns.(Rng.int g.rng 2) in
  let req = c.next_req in
  c.next_req <- req + 1;
  let t0 = now_ns () in
  let frame =
    Wire.frame
      (if op.o_write then Frame.buf_write_req ~version:Wire.v2 ~req ~key:op.o_key ~data:op.o_data ()
       else Frame.buf_read_req ~version:Wire.v2 ~req ~key:op.o_key ())
  in
  g.encode_ns <- Int64.add g.encode_ns (Int64.sub (now_ns ()) t0);
  Hashtbl.replace c.inflight req op;
  g.sent <- g.sent + 1;
  ignore (Unix.write_substring c.fd frame 0 (String.length frame))

(* Reads everything available on the readable connections; [on_done op
   now] fires per acknowledged op. *)
let poll g ~timeout ~on_done =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    Array.iter
      (fun c ->
        if List.mem c.fd ready then begin
          let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
          if n = 0 then failwith "server closed the connection";
          Wire.feed c.df chunk n;
          let rec drain () =
            match Wire.next_frame c.df with
            | None -> ()
            | Some payload ->
              let t0 = now_ns () in
              let frame = Frame.decode ~version:Wire.v2 payload in
              let t1 = now_ns () in
              g.decode_ns <- Int64.add g.decode_ns (Int64.sub t1 t0);
              g.codec_ops <- g.codec_ops + 1;
              (match frame with
              | Frame.Resp { req; value; _ } -> (
                match Hashtbl.find_opt c.inflight req with
                | Some op ->
                  Hashtbl.remove c.inflight req;
                  g.acked <- g.acked + 1;
                  (* A read returns the initial value or a datum written
                     to the same shard — each shard is one register. *)
                  let d = value.Value.data in
                  let shard = Placement.route placement ~key:op.o_key in
                  if (not op.o_write) && d <> 0 && Hashtbl.find_opt g.written d <> Some shard then
                    g.bad_reads <- g.bad_reads + 1;
                  on_done op t1
                | None -> ())
              | Frame.Err { req; _ } -> (
                match Hashtbl.find_opt c.inflight req with
                | Some op ->
                  Hashtbl.remove c.inflight req;
                  g.failed <- g.failed + 1;
                  ignore op
                | None -> ())
              | _ -> ());
              drain ()
          in
          drain ()
        end)
      g.conns

let inflight g = Array.fold_left (fun acc c -> acc + Hashtbl.length c.inflight) 0 g.conns

(* Waits out the ops still in flight; whatever is not answered within
   [timeout] counts as failed. *)
let drain g ~timeout ~on_done =
  let deadline = now_s () +. timeout in
  while inflight g > 0 && now_s () < deadline do
    poll g ~timeout:0.05 ~on_done
  done;
  let lost = inflight g in
  g.failed <- g.failed + lost;
  Array.iter (fun c -> Hashtbl.reset c.inflight) g.conns

type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 4096 0.; len = 0 }

let push s v =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0. in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- v;
  s.len <- s.len + 1

let values s = Array.sub s.buf 0 s.len
let us_since stamp now = Int64.to_float (Int64.sub now stamp) *. 1e-3

(* Phase 1: [lv_window] closed-loop clients; wall time per batch of
   [batch] completed ops, and every op's round trip. Every ten batches
   the clients pause until nothing is in flight, then run the pace
   kernel; pauses are outside every batch. *)
let closed_loop g ~seconds ~batch =
  let rtt = samples () and batches = samples () in
  let start = now_s () in
  let windows = Array.init (int_of_float (Float.ceil seconds) + 2) (fun _ -> samples ()) in
  let record op now =
    let us = us_since op.o_stamp now in
    push rtt us;
    push windows.(Stdlib.min (Array.length windows - 1) (int_of_float (now_s () -. start))) us
  in
  let done_ = ref 0 and in_batch = ref 0 and batch_t0 = ref start and pausing = ref false in
  let fill () =
    for _ = 1 to lv_window do
      send g (draw_op g ~stamp:(now_ns ()))
    done
  in
  let on_done op now =
    record op now;
    incr done_;
    if not !pausing then begin
      incr in_batch;
      if !in_batch = batch then begin
        let t = now_s () in
        push batches (t -. !batch_t0);
        batch_t0 := t;
        in_batch := 0;
        if batches.len mod 10 = 0 then pausing := true
      end;
      if (not !pausing) && now_s () -. start < seconds then send g (draw_op g ~stamp:(now_ns ()))
    end
  in
  fill ();
  while now_s () -. start < seconds do
    poll g ~timeout:0.05 ~on_done;
    if !pausing && inflight g = 0 then begin
      pace_burst 5;
      pausing := false;
      batch_t0 := now_s ();
      fill ()
    end
  done;
  drain g ~timeout:5. ~on_done:record;
  let elapsed = now_s () -. start in
  (!done_, elapsed, values rtt, values batches, Array.map values windows)

(* Phase 2: an open loop at [lv_rate] ops/s on a fixed schedule. Each
   op's latency runs from its due time, so a stall also charges the ops
   queued behind it; [lag] is how late the generator sent each op. *)
let open_loop g ~seconds =
  let reads = samples () and writes = samples () and lag = samples () in
  let on_done op now = push (if op.o_write then writes else reads) (us_since op.o_stamp now) in
  let t0 = now_ns () in
  let total = int_of_float (seconds *. lv_rate) in
  let interval = Int64.of_float (1e9 /. lv_rate) in
  let i = ref 0 in
  while !i < total do
    let now = now_ns () in
    let due = Int64.add t0 (Int64.mul (Int64.of_int !i) interval) in
    if Int64.compare due now <= 0 then begin
      push lag (us_since due now);
      send g (draw_op g ~stamp:due);
      incr i
    end
    else poll g ~timeout:(Int64.to_float (Int64.sub due now) *. 1e-9) ~on_done
  done;
  drain g ~timeout:5. ~on_done;
  (values reads, values writes, values lag)

let close_gen g = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) g.conns

(* Set-up as a user pays it: start the server, wait for the mesh, open
   both connections and complete one op on each shard. *)
let live_up ~seed ~trace_dir =
  let s = start_server ~trace_dir in
  let g = new_gen ~seed s.ports in
  List.iter
    (fun key ->
      send g { o_write = false; o_key = key; o_data = 0; o_stamp = now_ns () };
      drain g ~timeout:5. ~on_done:(fun _ _ -> ()))
    (List.init lv_shards (fun shard ->
         let rec find k = if Placement.route placement ~key:k = shard then k else find (k + 1) in
         find 0));
  (s, g)

let live_down (s, g) =
  close_gen g;
  stop_server s

type live_pass = {
  lp_ops : int;
  lp_elapsed : float;
  lp_rtt : float array;
  lp_batches : float array;
  lp_server : server_sample;  (** over phase 1 *)
  lp_reads : float array;
  lp_writes : float array;
  lp_windows : float array array;  (** phase-1 round trips by one-second window *)
  lp_lag : float array;
  lp_peak_mb : float;
  lp_sent : int;
  lp_failed : int;
  lp_bad_reads : int;
  lp_encode_ns : float;
  lp_decode_ns : float;
}

(* Phase 1 (closed loop) for [phase_s] seconds, then phase 2 (open
   loop) for [open_s]. *)
let live_pass ~seed ~trace_dir ~phase_s ~open_s =
  let s, g = live_up ~seed ~trace_dir in
  Fun.protect
    ~finally:(fun () -> live_down (s, g))
    (fun () ->
      ignore (closed_loop g ~seconds:0.5 ~batch:1000);
      let before = sample_server s in
      let ops, elapsed, rtt, batches, windows = closed_loop g ~seconds:phase_s ~batch:1000 in
      let server = diff before (sample_server s) in
      let reads, writes, lag =
        if open_s > 0. then open_loop g ~seconds:open_s else ([||], [||], [||])
      in
      let peak = peak_rss_mb (string_of_int s.pid) in
      {
        lp_ops = ops;
        lp_elapsed = elapsed;
        lp_rtt = rtt;
        lp_batches = batches;
        lp_server = server;
        lp_reads = reads;
        lp_writes = writes;
        lp_windows = windows;
        lp_lag = lag;
        lp_peak_mb = peak;
        lp_sent = g.sent;
        lp_failed = g.failed;
        lp_bad_reads = g.bad_reads;
        lp_encode_ns = Int64.to_float g.encode_ns /. float_of_int (Stdlib.max 1 g.sent);
        lp_decode_ns = Int64.to_float g.decode_ns /. float_of_int (Stdlib.max 1 g.codec_ops);
      })

let live_gates p =
  gate (p.lp_failed = 0) (Printf.sprintf "live-kv: %d op(s) failed or went unanswered" p.lp_failed);
  gate (p.lp_bad_reads = 0)
    (Printf.sprintf "live-kv: %d read(s) returned a value never written to their shard"
       p.lp_bad_reads)

let cpu_us_per_op p = 1e6 *. ratio (p.lp_server.user +. p.lp_server.sys) (float_of_int p.lp_ops)

let print_live p =
  Printf.printf
    "  phase 1 closed loop (%d clients): %d ops in %.2f s; round trip p50 %.0f us, p99 %.0f us (%d samples)\n"
    lv_window p.lp_ops p.lp_elapsed (quantile p.lp_rtt 0.5) (quantile p.lp_rtt 0.99)
    (Array.length p.lp_rtt);
  if Array.length p.lp_reads > 0 then
    Printf.printf
      "  phase 2 open loop %.0f op/s: %d reads p50 %.0f us p99 %.0f us; %d writes p50 %.0f us p99 %.0f us\n"
      lv_rate (Array.length p.lp_reads) (quantile p.lp_reads 0.5) (quantile p.lp_reads 0.99)
      (Array.length p.lp_writes) (quantile p.lp_writes 0.5) (quantile p.lp_writes 0.99)

(* A shared host stalls the CPU now and then for milliseconds, and one
   stall can set a whole run's p99. The median over one-second windows
   of each window's percentile keeps what most windows saw. *)
let windowed p q =
  median
    (Array.of_list
       (List.filter_map
          (fun w -> if Array.length w >= 1000 then Some (quantile w q) else None)
          (Array.to_list p.lp_windows)))

(* Reads back the traced run's per-node traces, merges them by time and
   audits every shard's register separately. *)
let audit_traces paths =
  let merged =
    List.concat_map
      (fun path ->
        match Export.tagged_events_of_jsonl_lenient (read_file path) with
        | Ok (evs, _) -> evs
        | Error e -> failwith (path ^ ": " ^ e))
      paths
  in
  List.init lv_shards (fun shard ->
      let evs =
        List.filter_map (fun (tag, ev) -> if tag = Some shard then Some ev else None) merged
        |> List.stable_sort (fun (a : Event.stamped) b -> Time.compare a.at b.at)
      in
      let report = Regularity.check (Replay.history_of_events ~initial:(Value.initial 0) evs) in
      (shard, List.length evs, Regularity.is_ok report))

let scratch_dir () =
  let dir = Filename.concat ".bench_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ())) in
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  Sys.mkdir dir 0o755;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let run_live ~seed ~seconds ~trace =
  if not trace then begin
    let setup_s =
      setup_median ~reps:31 (fun () -> live_down (live_up ~seed ~trace_dir:None))
    in
    let p, stolen =
      measure_steal ~busy:1 (fun () ->
          live_pass ~seed ~trace_dir:None ~phase_s:(Float.max 1. (seconds -. 1.5)) ~open_s:0.)
    in
    live_gates p;
    print_live p;
    let batch_s = median p.lp_batches in
    let raw =
      [ ("setup_s", setup_s);
        ("peak_rss_mb", p.lp_peak_mb);
        ("wall_s", batch_s);
        ("ops_per_s", ratio 1000. batch_s);
        ("cpu_us_per_op", cpu_us_per_op p);
        ("p50_us", windowed p 0.5);
        ("p99_us", windowed p 0.99) ]
    in
    Printf.printf "  stolen %.1f%%\n" (100. *. stolen);
    (* In a phase where the host ran at two speeds, eight runs' server
       CPU per op rose with the kernel's time at a log-log slope of 2.2
       (3.1 for wall_s). Squaring the factor cut their spread from 29%
       to 10% (cpu_us_per_op) and from 48% to 24% (wall_s). In calm
       phases it costs a point or so. *)
    ( report ~raw (at_pace ~exponent:2. (unsteal stolen raw)),
      p.lp_sent,
      p.lp_failed )
  end
  else begin
    let base = live_pass ~seed ~trace_dir:None ~phase_s:(seconds /. 4.) ~open_s:(seconds /. 4.) in
    let dir = scratch_dir () in
    let traced =
      live_pass ~seed ~trace_dir:(Some dir) ~phase_s:(seconds /. 4.) ~open_s:(seconds /. 4.)
    in
    let paths = List.init lv_nodes (trace_path dir) in
    let trace_bytes = List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 paths in
    let verdicts = audit_traces paths in
    remove_dir dir;
    List.iter
      (fun (shard, events, ok) ->
        Printf.printf "  traced run: shard %d: %d events, %s\n" shard events
          (if ok then "REGULAR" else "NOT REGULAR");
        gate (ok && events > 0) (Printf.sprintf "live-kv: shard %d trace does not audit REGULAR" shard))
      verdicts;
    live_gates base;
    live_gates traced;
    print_live base;
    let ops = float_of_int base.lp_ops in
    let sv = base.lp_server in
    let traced_ops = float_of_int (traced.lp_sent) in
    ( [ ("server.user_us_per_op", 1e6 *. ratio sv.user ops);
        ("server.sys_us_per_op", 1e6 *. ratio sv.sys ops);
        ("server.syscalls_per_op", ratio sv.syscalls ops);
        ("server.bytes_per_op", ratio sv.bytes ops);
        ("server.ctxsw_per_op", ratio sv.ctxsw ops);
        ("store.peer_msgs_per_op", ratio sv.peer_msgs ops);
        ("wire.encode_ns", base.lp_encode_ns);
        ("wire.decode_ns", base.lp_decode_ns);
        ("client.rtt_p50_us", quantile base.lp_rtt 0.5);
        ("gen.lag_p99_us", quantile base.lp_lag 0.99);
        ("live.read_p50_us", quantile base.lp_reads 0.5);
        ("live.read_p99_us", quantile base.lp_reads 0.99);
        ("live.write_p99_us", quantile base.lp_writes 0.99);
        ("trace.cpu_us_per_op", cpu_us_per_op traced -. cpu_us_per_op base);
        ("trace.bytes_per_op", ratio (float_of_int trace_bytes) traced_ops);
        ( "trace.wall_overhead_frac",
          ratio (median traced.lp_batches) (median base.lp_batches) -. 1. ) ],
      base.lp_sent + traced.lp_sent,
      base.lp_failed + traced.lp_failed )
  end

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "sim-nemesis | sim-verify | live-kv");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let metrics, attempted, failed =
    match !workload with
    | "sim-nemesis" | "sim-verify" ->
      run_sim ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced
    | "live-kv" -> run_live ~seed:!seed ~seconds:!seconds ~trace:traced
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  List.iter (fun w -> prerr_endline ("gate failed: " ^ w)) (List.rev !gate_failures);
  emit
    ~names:(if traced then per_layer else end_to_end)
    { correct = !gate_failures = []; attempted = Stdlib.max 1 attempted; failed; metrics }
