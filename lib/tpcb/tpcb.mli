(** Modified TPC-B benchmark (Section 5.1).

    The database follows the TPC-B scaling rules: for each TPS of rated
    capacity, 100 000 accounts, 10 tellers and 1 branch — the paper's
    10 TPS configuration is 1 000 000 accounts, 100 tellers, 10 branches.
    Accounts, tellers and branches are primary B-trees (data in the
    tree); history is a fixed-length recno file. Each transaction
    withdraws a random amount from a random account, updating the
    account, its teller and its branch, and appends a history record.

    As in the paper: a single log (for the user-level system), a single
    centralized machine, and a single user (multiprogramming level 1). *)

type scale = { accounts : int; tellers : int; branches : int }

val scale_for_tps : int -> scale
(** TPC-B scaling rules; the paper uses [scale_for_tps 10]. *)

(** Which transaction system executes the workload. *)
type backend =
  | User of Libtp.t  (** LIBTP (runs on either file system) *)
  | Kernel of Ktxn.t  (** the embedded manager (LFS only) *)

type db
(** An opened TPC-B database (file handles plus scale). *)

val build :
  Clock.t -> Stats.t -> Config.t -> Vfs.t -> rng:Rng.t -> scale:scale -> db
(** Create and bulk-load the four relations under ["/tpcb"]
    non-transactionally, then flush the file system. Balances start at
    zero. *)

val open_db : Vfs.t -> scale:scale -> db
(** Re-open an existing database (after a remount). *)

val protect_all : db -> Ktxn.t -> unit
(** Mark the four relations transaction-protected (embedded backend). *)

type result = {
  txns : int;
  elapsed_s : float;  (** simulated seconds for the measured run *)
  tps : float;
  max_latency_s : float;  (** worst single-transaction latency *)
  latencies_s : float array;  (** per-transaction latencies, in order *)
}

val run :
  Clock.t -> Stats.t -> Config.t -> db -> backend -> rng:Rng.t -> n:int -> result
(** Execute [n] transactions one after another, outside any scheduler
    process, and report simulated-time throughput: the single-user
    (MPL 1) case of the TPC-B driver, with no waiting anywhere — device
    and group-commit costs just advance the clock.
    @raise Lockmgr.Blocked_outside_process if a lock request conflicts
    (a single user never does). *)

val account_balance : Clock.t -> Stats.t -> Config.t -> db -> Vfs.t -> int -> int
(** Read one account's balance non-transactionally (for tests). *)

val check_consistency : Clock.t -> Stats.t -> Config.t -> db -> Vfs.t -> unit
(** Verify Σ account balances = Σ teller balances = Σ branch balances and
    that the history count matches the balances' provenance; raises
    [Failure] on violation. *)

val history_count : Clock.t -> Stats.t -> Config.t -> db -> Vfs.t -> int

val account_fd : db -> Vfs.fd
(** File handle of the account relation (used by the SCAN workload). *)

(** {1 Multi-user runs}

    The paper measures single-user (multiprogramming level 1) and notes
    that the configuration "is so disk-bound that increasing the
    multi-programming level increases throughput only marginally".
    {!run_sched} runs the same worker loop as {!run} in [mpl] processes
    of the discrete-event scheduler: a lock conflict parks the process
    until the holder releases, and a deadlock aborts and restarts the
    requester. The two entry points are the two execution modes of
    {!Sched}; they agree on cache-resident configurations but not on
    disk-bound ones (DESIGN.md §11). *)

type multi_result = {
  base : result;
  conflicts : int;  (** times a process parked on a lock *)
  deadlocks : int;  (** transactions aborted by deadlock detection *)
  restarts : int;  (** transaction restarts (deadlock victims retried) *)
}

val run_sched :
  Clock.t ->
  Stats.t ->
  Config.t ->
  db ->
  backend ->
  rng:Rng.t ->
  n:int ->
  mpl:int ->
  multi_result
(** True multi-user run on the discrete-event scheduler attached to
    [clock] (see {!Sched}): [mpl] worker processes claim transactions
    from a shared counter, and every blocking point — lock waits,
    disk-queue reads, the group-commit rendezvous — parks the worker so
    others overlap with it. Latencies span begin to durable commit,
    including rendezvous waits. [conflicts] counts real lock blocks.

    All workers share the one history file. At page grain its tail page
    serializes committers through the commit flush (the hot-page problem
    the paper inherits from TPC-B); at record grain
    ([fs.lock_grain = `Record]) appenders lock only their own slot and
    committers overlap.
    @raise Invalid_argument if no scheduler is attached to [clock]. *)
