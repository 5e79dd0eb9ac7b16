(** Disk request scheduling.

    The read-optimized file system's 30-second syncer does not issue its
    delayed writes in dirty order: they are sorted into the disk queue
    (Section 5.1: "sorted in the disk queue with all other I/O"). This
    module provides that ordering as a pure function over request lists
    so it can be unit-tested independently of the device. *)

val order : head:int -> (int * 'a) list -> (int * 'a) list
(** [order ~head reqs] returns [reqs] in C-LOOK service order: ascending
    from the current head position, then wrapping to the lowest
    remaining request. Requests are [(block, payload)] pairs; payloads
    are carried along untouched, and requests for the same block keep
    their arrival order. *)
