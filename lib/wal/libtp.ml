type txn = {
  id : int;
  stream : int; (* WAL stream this transaction's records append to *)
  deps : Logrec.lsn array;
  (* Per-stream dependency watermarks: for each stream, the highest LSN
     of a record this transaction's outcome depends on — accumulated
     whenever it touches (reads or overwrites) a page last written under
     another stream. Reads count too: a committed reader must not
     survive a crash that loses the writer it observed. *)
  mutable last_lsn : Logrec.lsn;
  mutable undo : (int * int * int * bytes) list; (* file, page, off, before *)
  mutable live : bool;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  vfs : Vfs.t;
  logs : Logset.t;
  pool : Bufpool.t;
  locks : Lockmgr.t;
  mutable next_txn_id : int;
  active : (int, txn) Hashtbl.t;
  mutable committed_since_cp : int;
  checkpoint_every : int;
  mutable losers : int;
}

exception Deadlock_abort of int

let txn_id txn = txn.id
let pool t = t.pool
let logs t = t.logs
let log t = Logset.get t.logs 0
let locks t = t.locks
let page_size t = Bufpool.page_size t.pool
let recovered_losers t = t.losers

let mutex t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.User_mutex

let grain t = t.cfg.Config.fs.lock_grain

let check_live txn =
  if not txn.live then invalid_arg "Libtp: transaction already finished"

(* The transaction's own log stream. *)
let lm t txn = Logset.get t.logs txn.stream

(* Record that [txn] touched the page: fold the page's per-stream update
   watermarks into the transaction's dependency vector. *)
let note_touch t txn ~file ~page =
  if Logset.n t.logs > 1 then Bufpool.merge_deps t.pool ~file ~page txn.deps

(* Cross-stream chain pointer for the page's next update record: its
   last writer, unless that writer used the caller's own stream (the
   in-stream order already serializes them). *)
let chain_for t txn ~file ~page =
  let s, l = Bufpool.chain t.pool ~file ~page in
  if s < 0 || s = txn.stream then (-1, Logrec.null_lsn) else (s, l)

(* Sparse vector LSN carried by this transaction's commit/abort record:
   its cross-stream dependency watermarks. Own-stream dependencies are
   implicit in the append order. *)
let sparse_deps txn =
  let out = ref [] in
  Array.iteri
    (fun s l -> if s <> txn.stream && l >= 0 then out := (s, l) :: !out)
    txn.deps;
  List.rev !out

(* Apply one image (before or after) straight through the pool. *)
let apply_image t ~file ~page ~off data ~stream lsn =
  Bufpool.apply t.pool ~file ~page [ { Bufpool.off; data; stream; lsn } ]

let release t txn =
  mutex t;
  Lockmgr.release_all t.locks ~txn:txn.id;
  Lockmgr.release_latches t.locks ~owner:txn.id;
  Hashtbl.remove t.active txn.id;
  txn.live <- false

(* Latch waits carry no deadlock risk: latch acquisition is top-down,
   and a process never parks on a lock while holding latches (it drops
   them and restarts the operation), so every latch holder runs to the
   end of its operation. *)
let latch t txn obj mode =
  check_live txn;
  Lockmgr.latch_blocking t.locks ~owner:txn.id obj mode

let end_op t txn = Lockmgr.release_latches t.locks ~owner:txn.id

let k_aborts = Stats.counter "txn.aborts"
let k_begins = Stats.counter "txn.begins"
let k_checkpoints = Stats.counter "txn.checkpoints"
let k_commits = Stats.counter "txn.commits"
let k_op_restarts = Stats.counter "txn.op_restarts"
let k_recovered_losers = Stats.counter "txn.recovered_losers"

(* Undo with compensation logging: each restore is itself logged as an
   update, so recovery replays aborts forward (redo-only) and never
   re-applies a stale before-image over a later committed write. At
   record grain the restore of each page happens under its exclusive
   page latch: other transactions share dirty pages there, and a restore
   racing another writer's read-modify-write would resurrect aborted
   bytes through the writer's stale buffer. *)
let do_abort t txn =
  let latched = grain t = `Record in
  List.iter
    (fun (file, page, off, before) ->
      if latched then
        Lockmgr.latch_blocking t.locks ~owner:txn.id (Lockmgr.Page (file, page))
          Lockmgr.Exclusive;
      note_touch t txn ~file ~page;
      let pstream, plsn = chain_for t txn ~file ~page in
      let current =
        Bytes.sub (Bufpool.get t.pool ~file ~page) off (Bytes.length before)
      in
      let lsn =
        Logmgr.append (lm t txn)
          {
            Logrec.txn = txn.id;
            prev = txn.last_lsn;
            body =
              Logrec.Update
                { file; page; off; pstream; plsn; before = current; after = before };
          }
      in
      txn.last_lsn <- lsn;
      apply_image t ~file ~page ~off before ~stream:txn.stream lsn;
      if latched then Lockmgr.unlatch t.locks ~owner:txn.id (Lockmgr.Page (file, page)))
    txn.undo;
  let lsn =
    Logmgr.append (lm t txn)
      {
        Logrec.txn = txn.id;
        prev = txn.last_lsn;
        body = Logrec.Abort { deps = sparse_deps txn };
      }
  in
  txn.last_lsn <- lsn;
  Stats.bump t.stats k_aborts;
  release t txn

(* A conflicting acquire parks the process until the lock is free (see
   [Lockmgr.acquire_blocking]); deadlock, detected at acquire time,
   aborts the transaction and raises. *)
let deadlock t txn =
  do_abort t txn;
  raise (Deadlock_abort txn.id)

let lock t txn obj mode =
  mutex t;
  match Lockmgr.acquire_blocking t.locks ~txn:txn.id obj mode with
  | `Granted | `Waited -> ()
  | `Deadlock -> deadlock t txn

(* Record-grain lock acquisition from inside an access-method operation:
   if the request must wait, the process first releases every latch it
   holds (so latch holders always make progress), parks until the lock
   is granted, and reports [`Restart] — any page buffers the operation
   read before parking may be stale, so the caller re-runs the whole
   operation (the granted lock is kept; the retry re-acquires it as a
   no-op). *)
let lock_restartable t txn obj mode =
  check_live txn;
  mutex t;
  let on_wait () =
    Lockmgr.release_latches t.locks ~owner:txn.id;
    Stats.bump t.stats k_op_restarts
  in
  match Lockmgr.acquire_blocking ~on_wait t.locks ~txn:txn.id obj mode with
  | `Granted -> `Granted
  | `Waited -> `Restart
  | `Deadlock -> deadlock t txn

let begin_txn t =
  mutex t;
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  let txn =
    {
      id;
      stream = Logset.stream_of_txn t.logs id;
      deps = Array.make (Logset.n t.logs) Logrec.null_lsn;
      last_lsn = Logrec.null_lsn;
      undo = [];
      live = true;
    }
  in
  Hashtbl.replace t.active id txn;
  txn.last_lsn <-
    Logmgr.append (lm t txn)
      { Logrec.txn = id; prev = Logrec.null_lsn; body = Logrec.Begin };
  Stats.bump t.stats k_begins;
  txn

let read_page t txn ~file ~page =
  check_live txn;
  lock t txn (Lockmgr.Page (file, page)) Lockmgr.Shared;
  note_touch t txn ~file ~page;
  Bufpool.get t.pool ~file ~page

let read_page_raw t txn ~file ~page =
  note_touch t txn ~file ~page;
  Bufpool.get t.pool ~file ~page

external get_word : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Smallest byte range where [a] and [b] differ; None if equal. Whole
   8-byte words are compared first from each end, then single bytes; the
   loop bounds keep every unchecked word load inside the page. *)
let diff_range a b =
  let n = Bytes.length a in
  assert (n = Bytes.length b);
  let lo = ref 0 in
  while !lo + 8 <= n && Int64.equal (get_word a !lo) (get_word b !lo) do
    lo := !lo + 8
  done;
  while !lo < n && Bytes.get a !lo = Bytes.get b !lo do
    incr lo
  done;
  if !lo = n then None
  else begin
    (* [hi] is one past the last differing byte; a[lo] <> b[lo] stops
       both loops above [lo]. *)
    let hi = ref n in
    while !hi - 8 > !lo && Int64.equal (get_word a (!hi - 8)) (get_word b (!hi - 8)) do
      hi := !hi - 8
    done;
    while Bytes.get a (!hi - 1) = Bytes.get b (!hi - 1) do
      decr hi
    done;
    Some (!lo, !hi - !lo)
  end

(* The one page-write body behind [write_page] ([`Page]),
   [write_page_raw] ([`Raw]) and [write_page_sys] ([`Sys]): log the
   changed byte range, then apply it to the pool.

   Only [`Page] takes the page lock. At record grain ([`Raw]) isolation
   comes from the record locks and latches the access method holds, and
   byte-range logging keeps the undo of co-resident transactions
   disjoint.

   [`Sys] is a redo-only system write, logged as transaction 0.
   Transaction 0 never logs a Begin, so recovery never classifies it as
   a loser: the update is redone but never undone, even when the
   transaction that issued it aborts. Used for the recno record-count,
   whose allocation must survive an aborted append (the record bytes
   themselves are undone, leaving a zeroed hole). The record goes to
   the {e enclosing} transaction's stream so it is covered by that
   transaction's commit-time force. *)
let write_as kind t txn ~file ~page data =
  check_live txn;
  if Bytes.length data <> page_size t then
    invalid_arg
      (Printf.sprintf "Libtp.%s: data must be exactly one page"
         (match kind with
         | `Page -> "write_page"
         | `Raw -> "write_page_raw"
         | `Sys -> "write_page_sys"));
  (match kind with
  | `Page -> lock t txn (Lockmgr.Page (file, page)) Lockmgr.Exclusive
  | `Raw | `Sys -> ());
  let current = Bufpool.get t.pool ~file ~page in
  match diff_range current data with
  | None -> ()
  | Some (off, len) ->
    let before = Bytes.sub current off len in
    let after = Bytes.sub data off len in
    note_touch t txn ~file ~page;
    let pstream, plsn = chain_for t txn ~file ~page in
    let sys = match kind with `Sys -> true | `Page | `Raw -> false in
    let lsn =
      Logmgr.append (lm t txn)
        {
          Logrec.txn = (if sys then 0 else txn.id);
          prev = (if sys then Logrec.null_lsn else txn.last_lsn);
          body = Logrec.Update { file; page; off; pstream; plsn; before; after };
        }
    in
    if not sys then begin
      txn.last_lsn <- lsn;
      txn.undo <- (file, page, off, before) :: txn.undo
    end;
    apply_image t ~file ~page ~off after ~stream:txn.stream lsn

let write_page t txn ~file ~page data = write_as `Page t txn ~file ~page data
let write_page_raw t txn ~file ~page data = write_as `Raw t txn ~file ~page data
let write_page_sys t txn ~file ~page data = write_as `Sys t txn ~file ~page data

let checkpoint t =
  if Hashtbl.length t.active = 0 then begin
    Bufpool.flush_all t.pool;
    Logset.force_all t.logs;
    Logset.truncate_all t.logs;
    (* The truncation invalidated every page watermark: stale LSNs would
       point past the (now empty) logs and wedge the next WAL force. *)
    Bufpool.reset_lsns t.pool;
    for s = 0 to Logset.n t.logs - 1 do
      let lg = Logset.get t.logs s in
      let lsn =
        Logmgr.append lg
          {
            Logrec.txn = 0;
            prev = Logrec.null_lsn;
            body = Logrec.Checkpoint { active = [] };
          }
      in
      Logmgr.force lg ~upto:lsn
    done;
    t.committed_since_cp <- 0;
    Stats.bump t.stats k_checkpoints
  end

let commit t txn =
  check_live txn;
  mutex t;
  (* Make every cross-stream dependency durable BEFORE the commit record
     even enters its stream's buffer: once appended, any other
     committer's group force can make it durable, and a durable commit
     whose dependency is still volatile breaks the recovery merge's
     loser argument. *)
  let deps = sparse_deps txn in
  if deps <> [] then Logset.force_deps t.logs ~own:txn.stream txn.deps;
  let lsn =
    Logmgr.append (lm t txn)
      { Logrec.txn = txn.id; prev = txn.last_lsn; body = Logrec.Commit { deps } }
  in
  Logmgr.force_commit (lm t txn) ~upto:lsn;
  release t txn;
  Stats.bump t.stats k_commits;
  t.committed_since_cp <- t.committed_since_cp + 1;
  if t.committed_since_cp >= t.checkpoint_every then checkpoint t

let abort t txn =
  check_live txn;
  mutex t;
  do_abort t txn

(* Crash recovery: merge the streams into dependency order, redo history
   from the last checkpoint, then undo losers. After-images are absolute
   bytes, so redo is idempotent. Records of different pages commute, so
   each page is replayed once, in the order a whole-log pass would
   apply its images: its redo records in merged order, then its losers'
   before-images newest first. *)
let recover t =
  let merged = Logset.merged_records t.logs in
  let winners = Hashtbl.create 16 and losers = Hashtbl.create 8 in
  List.iter
    (fun (_, _, r) ->
      match r.Logrec.body with
      | Logrec.Commit _ | Logrec.Abort _ ->
        (* Aborted transactions logged their undo as compensation
           updates, so like committed ones they replay forward. *)
        Hashtbl.replace winners r.Logrec.txn ()
      | _ -> ())
    merged;
  List.iter
    (fun (_, _, r) ->
      match r.Logrec.body with
      | Logrec.Begin when not (Hashtbl.mem winners r.Logrec.txn) ->
        Hashtbl.replace losers r.Logrec.txn ()
      | _ -> ())
    merged;
  (* Each page's images, newest first, and the pages in the order redo
     first reaches them. *)
  let images = Hashtbl.create 64 and pages = ref [] in
  let push key u =
    match Hashtbl.find_opt images key with
    | Some l -> l := u :: !l
    | None ->
      Hashtbl.add images key (ref [ u ]);
      pages := key :: !pages
  in
  List.iter
    (fun (stream, lsn, r) ->
      match r.Logrec.body with
      | Logrec.Update { file; page; off; after; _ } ->
        push (file, page) { Bufpool.off; data = after; stream; lsn }
      | _ -> ())
    merged;
  List.iter
    (fun (stream, lsn, r) ->
      match r.Logrec.body with
      | Logrec.Update { file; page; off; before; _ } when Hashtbl.mem losers r.Logrec.txn ->
        push (file, page) { Bufpool.off; data = before; stream; lsn }
      | _ -> ())
    (List.rev merged);
  let pages = List.rev !pages in
  (* One prefetch reads the pages in disk order, so replay finds them
     cached instead of seeking to each in log order. *)
  t.vfs.Vfs.prefetch pages;
  List.iter
    (fun (file, page) ->
      Bufpool.apply t.pool ~file ~page (List.rev !(Hashtbl.find images (file, page))))
    pages;
  t.losers <- Hashtbl.length losers;
  Stats.bump_by t.stats k_recovered_losers t.losers;
  (* Make the recovered state durable and reset the logs. *)
  checkpoint t

let open_env clock stats (cfg : Config.t) vfs ?log_vfss ?(pool_pages = 1024)
    ?(checkpoint_every = 500) ~log_path () =
  (* The WAL may live in different file systems than the data — on
     dedicated log spindles, commit forces never move the data heads. *)
  let homes =
    match log_vfss with
    | Some homes when Array.length homes > 0 -> homes
    | _ -> [| vfs |]
  in
  let logs = Logset.create clock stats cfg ~homes ~path:log_path in
  let pool = Bufpool.create clock stats cfg vfs logs ~pages:pool_pages in
  let locks =
    Lockmgr.create ~escalation:cfg.Config.fs.lock_escalation ~metrics:"txn"
      clock stats cfg.cpu
  in
  let t =
    {
      clock;
      stats;
      cfg;
      vfs;
      logs;
      pool;
      locks;
      next_txn_id = 1;
      active = Hashtbl.create 16;
      committed_since_cp = 0;
      checkpoint_every;
      losers = 0;
    }
  in
  if Logset.flushed_total logs > 0 then recover t else checkpoint t;
  t
