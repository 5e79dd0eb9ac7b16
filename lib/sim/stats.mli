(** Named simulation counters, accumulators, maxima, latency histograms
    and the event-trace hook.

    Every subsystem records what it did (seeks performed, blocks read,
    segments cleaned, locks waited on, …) into a shared [Stats.t] so the
    experiment harness can report not just elapsed time but {e why} time
    was spent. The same handle carries the observability layer: fixed
    bucket latency histograms ({!observe_at}) and an optional structured
    event trace ({!set_trace} / {!emit}) that is free when disabled.

    {b Handles.} A key is registered once with {!counter}, {!timer},
    {!maximum} or {!series}, which return a slot handle; updates through
    the handle ({!bump}, {!add_to}, {!note_max}, {!observe_at}, …) are an
    array access, with no hashing. Handles are process-wide: one handle
    is valid for every [Stats.t], including ones created before the key
    was registered, and stays valid across {!reset}. Registering is
    idempotent — the same key always yields the same handle — and the
    four kinds have separate namespaces, so a time, a maximum and a
    histogram may share a key. The registry is a plain global table, not
    safe to extend from several domains at once.

    Reports ({!to_list}, {!to_json}, {!pp}, {!histograms}) list exactly
    the keys updated or declared since {!create} or the last {!reset}.

    Updates go through handles; {!incr} is the one string-keyed update,
    one hash lookup per call, for callers outside the simulator. Reads
    ({!count}, {!time}, {!max_of}, {!histo}) are by name. *)

type t

val create : unit -> t

(** {1 Handles} *)

type counter
type timer
type maximum
type series

val counter : string -> counter
(** The integer counter named by the key. *)

val timer : string -> timer
(** The seconds accumulator named by the key. *)

val maximum : string -> maximum
(** The running maximum named by the key. *)

val series : string -> series
(** The latency histogram named by the key. *)

val bump : t -> counter -> unit
(** Add 1 to the counter. *)

val bump_by : t -> counter -> int -> unit
(** Add [n] to the counter. *)

val add_to : t -> timer -> float -> unit
(** Accumulate [dt] seconds. *)

val note_max : t -> maximum -> float -> unit
(** Keep the maximum of all values reported. *)

val observe_at : t -> series -> float -> unit
(** Record one sample into the histogram (created on first use). *)

val declare_at : t -> series -> unit
(** Ensure the histogram exists, so reports carry it even when no sample
    was recorded. *)

(** {1 By name} *)

val incr : t -> string -> unit
(** Add 1 to the integer counter named by the key. *)

val count : t -> string -> int
(** Current value of the integer counter (0 if never touched). *)

val time : t -> string -> float
(** Current value of the time accumulator (0.0 if never touched). *)

val max_of : t -> string -> float
(** Current maximum recorded by {!note_max} (0.0 if never touched).
    Maxima have their own table, apart from {!time}'s. *)

val histo : t -> string -> Histo.t option
val histograms : t -> (string * Histo.t) list
(** All histograms, sorted by key. *)

val set_trace : t -> Trace.t option -> unit
(** Attach (or detach) an event trace; subsequent {!emit} calls land in
    it. *)

val trace : t -> Trace.t option
val tracing : t -> bool
(** True when a trace is attached — guard attribute building in hot
    paths. *)

val emit : t -> time:float -> string -> (string * Trace.value) list -> unit
(** Append an event at the given simulated time. No-op when no trace is
    attached. *)

val reset : t -> unit
(** Zero every counter, accumulator, maximum and histogram in place;
    handles stay valid. *)

val to_list : t -> (string * [ `Count of int | `Seconds of float | `Max of float ]) list
(** Sorted dump of all scalar entries, for reports and debugging. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** [{counters, times_s, maxes_s, histograms}] — the metrics block of the
    [BENCH_*.json] artifacts. *)
