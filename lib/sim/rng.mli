(** Deterministic pseudo-random source.

    All simulation randomness flows through one of these so that every
    experiment is reproducible from its seed, and "five runs" statistics
    (the paper reports means of five tests) come from five seeds. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** A new independent generator derived from [t]'s stream. *)
