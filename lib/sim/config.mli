(** Simulation parameters.

    Defaults model the paper's platform: a DECstation 5000/200 (≈ 20 MIPS,
    no hardware test-and-set) with a 300 MB DEC RZ55 SCSI disk, running
    Sprite with 4 KB file-system pages and 512 KB LFS segments.

    Every constant that the paper's results depend on is a field here so
    that the benches can ablate it (e.g. [has_test_and_set] closes the
    user/kernel gap of Figure 4; [lfs_user_cleaner] removes the cleaner
    stalls of Section 5.4). *)

(** Disk geometry and service-time model (see {!Tx_disk.Disk}). *)
type disk = {
  block_size : int;  (** bytes per block (file-system page); default 4096 *)
  nblocks : int;  (** total blocks on the device; default 76800 (300 MB) *)
  blocks_per_cylinder : int;
      (** used to convert block distance into seek distance *)
  min_seek_s : float;  (** single-cylinder seek time *)
  max_seek_s : float;  (** full-stroke seek time *)
  rpm : float;  (** spindle speed; average rotational delay is half a turn *)
  transfer_bytes_per_s : float;  (** sustained media transfer rate *)
}

(** CPU cost model. The paper attributes the gap between its simulation
    study and the implementation to exactly these overheads (Section 5.1),
    and the user/kernel gap to semaphore synchronization (two system calls
    per semaphore operation on a machine without test-and-set). *)
type cpu = {
  syscall_s : float;  (** one system call (trap + return) *)
  context_switch_s : float;  (** deschedule + reschedule a process *)
  has_test_and_set : bool;
      (** if false (DECstation), user-level mutexes cost
          [2 * syscall_s]; if true, they cost [test_and_set_s] *)
  test_and_set_s : float;  (** one uncontended hardware test-and-set *)
  copy_block_s : float;  (** memcpy of one block between buffers *)
  buffer_lookup_s : float;  (** buffer-cache hash lookup *)
  protection_check_s : float;
      (** per-buffer check "is this file transaction-protected?" paid by
          {e all} applications once transactions are embedded (Figure 5) *)
  record_op_s : float;
      (** query processing for one record operation inside a transaction
          (parse, access-method descent, call overhead) *)
  cursor_next_s : float;  (** per-record cost of a key-order cursor scan *)
  lock_op_s : float;  (** lock-table work for one acquire or release *)
  log_record_s : float;  (** format + buffer one WAL record *)
  file_op_s : float;  (** generic VFS operation (open, stat, create) *)
  compile_unit_s : float;  (** CPU burned "compiling" one Andrew file *)
}

(** File-system and transaction-manager policy knobs. *)
type fs = {
  kernel_txn : bool;
      (** whether the kernel has the embedded transaction manager compiled
          in; when true, every buffer access pays the (tiny)
          "is this file transaction-protected?" check of Figure 5 *)
  segment_blocks : int;  (** LFS segment size in blocks; default 128 *)
  cache_blocks : int;  (** buffer-cache capacity in blocks *)
  syncer_interval_s : float;  (** delayed-write flush period; default 30 s *)
  checkpoint_segments : int;
      (** LFS writes a checkpoint every this many segment closings *)
  cleaner_low_segments : int;
      (** start cleaning when free segments drop to this *)
  cleaner_high_segments : int;  (** stop cleaning at this many free *)
  cleaner_policy : [ `Greedy | `Cost_benefit ];
      (** default [`Cost_benefit]: the Rosenblum/Ousterhout
          benefit-to-cost ratio. It picks victims only for the adaptive
          background cleaner's idle clean-ahead, which runs only under
          the scheduler; the emergency stall paths in [Lfs.maybe_clean]
          always pick [`Greedy] victims, so single-user runs clean the
          same under either setting. *)
  cleaner_segregate : bool;
      (** hot/cold segregation: the cleaner writes relocated survivors
          to a separate open "cold" segment instead of re-mixing them
          with fresh writes at the log head; default true *)
  cleaner_adaptive : bool;
      (** load-adaptive background cleaning: the cleaner daemon backs
          off while the disk queue is deep and cleans toward the
          high-water mark when the device idles, instead of waking only
          at the low-water emergency; default true *)
  cleaner_backoff_qdepth : int;
      (** queue depth (outstanding requests across spindles) above which
          the adaptive background cleaner stays off the arm; default 2 *)
  lfs_user_cleaner : bool;
      (** Section 5.4 ablation: a user-space cleaner does not lock the
          files being cleaned *)
  group_commit_timeout_s : float;  (** max wait before forcing a commit *)
  group_commit_size : int;  (** commits that justify an immediate flush *)
  ndisks : int;
      (** data spindles; above 1 the LFS stripes segments round-robin
          across them (see {!Tx_disk.Diskset}); default 1 *)
  log_disk : bool;
      (** give the write-ahead log (and the LFS checkpoint region) a
          dedicated spindle instead of sharing the data disk(s) *)
  log_streams : int;
      (** parallel WAL streams; transactions are hash-assigned to a
          stream, each with its own append buffer, force mutex and
          group-commit rendezvous. With [log_disk] every stream gets its
          own spindle. Commit records carry a vector LSN so recovery can
          merge the streams in dependency order; default 1 *)
  lock_grain : [ `Page | `Record ];
      (** two-phase locking granularity: classic page locks (default) or
          hierarchical record locks with intention modes on page and
          file ancestors *)
  lock_escalation : int;
      (** record-lock count on one page at which a transaction's record
          locks escalate to a single page lock; default 16 *)
}

type t = { disk : disk; cpu : cpu; fs : fs }

val default : t
(** The calibrated DECstation/RZ55/Sprite configuration. *)

val scaled : ?factor:float -> t -> t
(** [scaled ~factor cfg] shrinks the disk and buffer cache by [factor]
    (default [0.1]) while preserving every ratio that drives the paper's
    results (cache ≪ database ≪ disk). Used for quick test runs. *)
