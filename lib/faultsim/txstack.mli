(** The three transaction stacks the paper compares, booted and
    recovered one way.

    - [Ffs_user]: LIBTP on the read-optimized file system;
    - [Lfs_user]: LIBTP on LFS;
    - [Lfs_kernel]: the transaction manager embedded in LFS.

    The experiments, the crash-point sweeps and the CLI all boot their
    stacks here, TPC-B through {!boot_tpcb}. Nothing else in
    lib/experiments or lib/faultsim formats or mounts a file system,
    opens a transaction manager, builds the TPC-B database or attaches a
    scheduler. *)

type backend = Ffs_user | Lfs_user | Lfs_kernel

val backends : (string * backend) list
(** The one name table: [ffs-user], [lfs-user], [lfs-kernel]. The CLI,
    the artifacts' [setup] keys and the crash sweeps all use it. *)

val name : backend -> string
(** The backend's entry in {!backends}. *)

val label : backend -> string
(** Report label, e.g. ["LFS / kernel (embedded)"]. *)

type machine = {
  backend : backend;
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;  (** spindles per [cfg.fs.ndisks] / [cfg.fs.log_disk] *)
}

val machine : backend -> Config.t -> machine
(** Fresh clock, stats and the disk set of [cfg], booted for [backend]:
    only the embedded manager leaves the log spindles free of a file
    system, so only [Lfs_kernel] routes the LFS checkpoint region to
    them ({!Diskset.create}'s [route_checkpoints]). *)

type fs = Ffs of Ffs.t | Lfs of Lfs.t

val format : machine -> fs
(** Format the backend's data file system and return it mounted: FFS on
    the primary spindle for [Ffs_user], LFS across the data spindles
    otherwise. For workloads that run without a transaction manager;
    {!boot} calls it. *)

val fs_vfs : fs -> Vfs.t

(** Where LIBTP keeps its state. *)
type wal = {
  pool_pages : int;  (** buffer-pool size *)
  checkpoint_every : int;  (** committed transactions between checkpoints *)
  log_path : string;
      (** the log file in the data file system; with log spindles each
          stream is ["/log"] on its own spindle's FFS *)
}

type t = {
  machine : machine;
  fs : fs;  (** the data file system as booted *)
  vfs : Vfs.t;  (** [fs_vfs fs] *)
  txn : Tpcb.backend;  (** LIBTP for the user backends, else the embedded manager *)
  wal : wal;
  logs : Ffs.t array;
      (** the WAL's home file systems, one per log spindle; empty for
          [Lfs_kernel] and when the log lives in the data file system *)
}

val boot : wal:wal -> populate:(Vfs.t -> 'a) -> machine -> t * 'a
(** Boot the machine's stack:
    + {!format} the data file system;
    + run [populate] on it (create and fill the files, no transactions);
    + for [Lfs_kernel], attach the embedded manager ({!Ktxn.create}).
      Otherwise format a small FFS on every log spindle, if the machine
      has any, and open LIBTP with [wal] on them, or in the data file
      system when it has none.

    The embedded manager protects nothing yet: the caller marks its
    files with {!Ktxn.protect}. *)

val lfs : t -> Lfs.t option
(** The data file system when it is LFS. *)

val boot_tpcb :
  ?mpl:int ->
  ?prepare:(t -> unit) ->
  wal:wal ->
  scale:Tpcb.scale ->
  rng:Rng.t ->
  machine ->
  t * Tpcb.db * Sched.t option
(** The one TPC-B boot, for every experiment and crash sweep:
    + when [mpl] is given, attach a {!Sched} to the machine's clock
      before anything boots, so the components take their blocking
      paths inside worker processes;
    + {!boot} with {!Tpcb.build} as the populate step;
    + for [Lfs_kernel], mark the four relations protected
      ({!Tpcb.protect_all});
    + run [prepare] (default: nothing), e.g. to prefill the disk;
    + with a scheduler, start the LFS syncer and cleaner as background
      processes ({!Lfs.start_background}).

    Returns the stack, the database handle [build] returned, and the
    scheduler, which the caller detaches once its workers are done. *)

val crash_and_recover : t -> Vfs.t * (unit -> unit)
(** Cut the power and bring the stack back, in this order:
    + crash the data file system and every log home;
    + mount every log home and [fsck] it;
    + mount the data file system (LFS rolls forward; FFS runs [fsck]
      before anything allocates, since its on-disk bitmap is stale after
      a crash);
    + for LIBTP, open the environment again, which replays the WAL:
      redo committed updates, undo losers, checkpoint.

    Returns the recovered data file system and its structural check
    ({!Lfs.check}, or [fsck] for FFS), which raises on corruption.
    Recovery runs on the no-scheduler paths: detach any {!Sched} first.
    @raise Failure when an [fsck] finds cross-allocated blocks. *)
