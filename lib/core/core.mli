(** Public facade: boot a simulated machine with a log-structured file
    system and the embedded transaction manager, and open transactional
    access methods on it.

    This is the API the examples and benchmarks use:

    {[
      let sys = Core.boot () in
      let v = Lfs.vfs sys.lfs in
      ignore (v.Vfs.create "/accounts");
      Ktxn.protect sys.ktxn "/accounts";
      Core.with_txn sys (fun txn ->
          let bt = Core.btree sys txn ~path:"/accounts" in
          Btree.insert bt "alice" "100")
    ]}

    Lower-level pieces ({!Lfs}, {!Ktxn}, {!Disk}, {!Libtp}, …) remain
    fully accessible for anything the facade does not cover. *)

type system = {
  config : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disk : Diskset.t;  (** one or more spindles, per [config.fs.ndisks] *)
  lfs : Lfs.t;
  ktxn : Ktxn.t;
}

val boot : ?config:Config.t -> unit -> system
(** A fresh machine: simulated clock and disk, newly formatted LFS,
    embedded transaction manager attached. *)

val crash : system -> unit
(** Power failure: volatile state is gone; the disk image remains. *)

val reboot : system -> system
(** Crash (if not already crashed), then mount with full recovery and a
    fresh transaction manager on the same disk. *)

val shutdown : system -> unit
(** Orderly unmount (flush + checkpoint). *)

val with_txn : system -> (Ktxn.txn -> 'a) -> 'a
(** Run a function inside a transaction: commits on return, aborts if it
    raises (and re-raises). *)

val btree : system -> Ktxn.txn -> path:string -> Btree.t
(** Open (or create) a transaction-protected B-tree at [path], bound to
    the given transaction. Like [recno] and [hash], it raises
    [Invalid_argument] on a file another access method formatted. *)

val recno : system -> Ktxn.txn -> path:string -> reclen:int -> Recno.t

val hash : system -> Ktxn.txn -> path:string -> buckets:int -> Hashdb.t

val elapsed : system -> float
(** Simulated seconds since boot of this [system] value. *)
