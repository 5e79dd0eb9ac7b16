(** The process-wide pool of block buffers.

    A buffer cache owns a fixed set of buffers and reads a missed block
    into one it has let go, instead of allocating a new one per miss.
    This module is that set for every {!Cache} of the process: a page
    miss takes its buffer here ({!take}, {!zeroed}), and when a cache
    drops a frame (eviction, replacement or invalidation) the frame's
    buffer is {!retire}d here. Buffers are kept per size, so pools for
    different block or page sizes never mix.

    {b The reuse rule.} Code may hold a frame, or a view of its bytes,
    across a call that can evict it (a page miss, a write-back, a park
    under the scheduler) only inside a {e buffer scope} ({!scope}). A
    retired buffer backs a new frame only once every scope that was open
    when it was retired has closed, or once the only open scope declares
    that it holds no view ({!quiesce}). So a view read inside a scope
    keeps the bytes its page had when its frame was dropped until the
    scope closes; outside any scope a view lasts until the next call
    that can evict. The four functions that open scopes
    ([Fileops.section] among them) are listed in cache.mli.

    A scope abandoned by a crashed scheduler (a process that never runs
    again, inside a scope) never closes: the buffers retired after it
    opened are never reused, so reuse may stop, but never starts early.

    Retired buffers and free buffers are each capped at {!cap} per size;
    a buffer past the cap is left to the garbage collector, which is
    safe because nothing here is ever freed while a view may hold it.

    {b Lent buffers.} [Pager.lend]'s buffers live here too, in a list of
    their own: a build borrows one and gives it back when it ends, so
    that list grows to the number of builds in flight at once and no
    further, and never trades buffers with the frames. *)

val cap : int
(** The most free, and the most retired, buffers kept per size. *)

val take : int -> bytes
(** [take size] is a buffer of [size] bytes whose contents are
    arbitrary: a free or reusable retired buffer, else a new one. The
    caller owns it until it hands it to [Cache.insert], {!give}s it back
    or drops it. *)

val zeroed : int -> bytes
(** {!take}, then zero every byte. *)

val give : bytes -> unit
(** Give back a buffer that nothing else references (one {!take}n and
    never handed to a cache, or a write buffer whose write returned): it
    is free at once. *)

val retire : bytes -> unit
(** A dropped frame's buffer, which views may still hold: free at once
    when no scope is open, else once the reuse rule allows. *)

val scope : (unit -> 'a) -> 'a
(** [scope f] runs [f] inside a buffer scope, which closes when [f]
    returns or raises. Scopes nest and overlap across processes. *)

val quiesce : unit -> unit
(** The caller, inside a scope of its own, declares that it holds no
    view of any frame right now. When that scope is the only one open,
    every buffer retired so far becomes reusable; otherwise nothing
    changes. *)

val lend : int -> (bytes -> 'a) -> 'a
(** [lend size build] runs [build] on a buffer of [size] bytes from the
    lent list and takes the buffer back when [build] returns or raises
    ([Pager.lend] states the contract). *)

(** {2 Counts, for tests} *)

val made : int -> int
(** Buffers of this size {!take} has allocated. *)

val lent : int -> int
(** Buffers of this size {!lend} has allocated. *)

val free : int -> int
(** Free buffers of this size. *)

val retired : int -> int
(** Retired buffers of this size, reusable or not. *)

val open_scopes : unit -> int
(** Scopes open now, abandoned ones included. *)
