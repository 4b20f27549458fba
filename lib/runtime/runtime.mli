open Dds_sim
open Dds_net

(** The environment a register protocol runs in.

    Every protocol in [lib/core] is a state machine driven by message
    deliveries and timer expiries; the only things it asks of the
    outside world are a clock, one-shot timers, point-to-point send,
    timely broadcast, attach/detach (presence), and two observability
    sinks. A ['msg t] packages exactly those capabilities as a record
    of closures, so the same protocol code runs unchanged over

    - the {e simulator} ({!of_sim}: {!Dds_sim.Scheduler} +
      {!Dds_net.Network} — deterministic, virtual time), and
    - the {e wire} ([Dds_runtime_unix.Store]: a select loop + TCP
      sockets — real time, one process per node).

    The record is deliberately first-order (no functor): a backend is
    one allocation, protocols stay non-functorized modules, and the
    simulator path compiles to the same calls it always made.

    {b Time.} [now]/[after] speak the protocol's tick unit. In the
    simulator a tick is the scheduler's abstract unit; on the wire the
    backend fixes 1 tick = 1 ms, so a protocol configured with
    [delta = 50] means a 50 ms synchrony bound (see DESIGN.md §14 for
    the mapping and its audit implications). *)

type timer = unit -> unit
(** Cancels the timer. Idempotent; cancelling after expiry is a
    no-op. *)

type 'msg t = {
  now : unit -> Time.t;  (** current time, in ticks *)
  after : who:Pid.t -> int -> (unit -> unit) -> timer;
      (** [after ~who d f] runs [f] once, [d] ticks from now. [who] is
          the node the timer acts upon — the simulator backend uses it
          to tag the event for the model checker's partial-order
          reduction; other backends may ignore it. *)
  send : src:Pid.t -> dst:Pid.t -> 'msg -> unit;
      (** Reliable point-to-point send; silently drops when [dst] is
          not present (stale membership is allowed by the model). *)
  broadcast : src:Pid.t -> 'msg -> unit;
      (** Timely broadcast to every process present at broadcast time,
          including the sender. *)
  attach : Pid.t -> (src:Pid.t -> 'msg -> unit) -> unit;
      (** Enter listening mode: deliveries for this pid invoke the
          handler with the clock already at the delivery instant. *)
  detach : Pid.t -> unit;  (** Leave the system; in-flight messages to this pid are dropped. *)
  events : Event.sink option;
      (** Typed-telemetry sink for operation spans, if the backend
          records one. *)
  incr : string -> unit;  (** Bump a protocol-level counter (e.g. ["sync.join.retry"]). *)
}

val of_sim : sched:Scheduler.t -> net:'msg Network.t -> 'msg t
(** The simulator backend: virtual clock from [sched], transport from
    [net], timers as scheduler events (tagged with the owning pid when
    a chooser is installed, so the checker can commute independent
    timers), [events]/[incr] wired to the network's sinks. Building
    one is a single record allocation; protocols driven through it
    behave byte-for-byte as they did when they called the scheduler
    and network directly. *)

(** {1 Call-through helpers} — so protocol code reads
    [Runtime.send t.rt ~src ~dst m] rather than spelling record
    application. *)

val now : 'msg t -> Time.t
val after : 'msg t -> who:Pid.t -> int -> (unit -> unit) -> timer
val send : 'msg t -> src:Pid.t -> dst:Pid.t -> 'msg -> unit
val broadcast : 'msg t -> src:Pid.t -> 'msg -> unit
val attach : 'msg t -> Pid.t -> (src:Pid.t -> 'msg -> unit) -> unit
val detach : 'msg t -> Pid.t -> unit
val events : 'msg t -> Event.sink option
val incr : 'msg t -> string -> unit
