(** Validation of [BENCH_*.json] artifacts.

    Every artifact must carry the {!Expcommon.write_bench} envelope with
    real metrics in it; on top of that, the experiment named by
    [meta.name] checks its own [data] block with the rules it exports
    (e.g. {!Fig4.check}, {!Mplsweep.check}). *)

val checks : (string * (Json.t -> string list)) list
(** [meta.name] to the experiment's [check] over the [data] block. *)

val check : Json.t -> string list
(** One message per violated rule, [[]] when the artifact holds. First
    the rules shared by every artifact: a [meta] object with a non-empty
    [name] and [config], a [data] object, at least one non-zero counter,
    and every histogram carrying [count], [p50], [p95], [p99], [max] and
    [buckets]. Then the check {!checks} names for [meta.name], if any. *)

val check_file : string -> string list
(** {!check} on the file's contents; ["not valid JSON"] if it does not
    parse. *)
