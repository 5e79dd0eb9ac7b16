type t = {
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  vfs : Vfs.t;
  fd : Vfs.fd;
  stream_force : Stats.series option; (* "log.<tag>.force", e.g. "log.s0.force" *)
  buf : Buffer.t; (* records appended since [flushed] *)
  mutable flushed : int; (* bytes durable on disk *)
  mutable pending_commits : int;
  (* Group-commit rendezvous state (used only under a Sched scheduler):
     committers park on [flush_cond] until [force_gen] moves past the
     generation they joined — every force, whoever triggers it,
     increments the generation after the fsync, so waking implies the
     waiter's commit record is durable. *)
  mutable force_gen : int;
  (* A force parks inside the VFS write/fsync (when the log lives on a
     simulated filesystem those are real I/O), so under a scheduler a
     second committer can arrive mid-force. Exactly one force runs at a
     time: [forcing] is the mutex bit, followers park on [flush_cond]. *)
  mutable forcing : bool;
  flush_cond : Sched.cond;
}

(* Incremental log scanning: records are streamed through a bounded
   window instead of slurping the whole file per call — [read_from] and
   [scan_end] used to read the entire log every time, which made replay
   after a long run O(log²) across the recovery loop. The window widens
   geometrically when a record straddles its end, so a scan reads each
   byte a bounded number of times. *)
let scan_chunk_bytes = 64 * 1024

let k_appends = Stats.counter "log.appends"
let h_commit_batch = Stats.series "log.commit_batch"
let h_force = Stats.series "log.force"
let k_forces = Stats.counter "log.forces"
let h_group_commit_wait = Stats.series "log.group_commit_wait"
let k_group_commit_wait = Stats.timer "log.group_commit_wait"
let k_recovery_bytes_scanned = Stats.counter "log.recovery_bytes_scanned"
let k_recovery_reads = Stats.counter "log.recovery_reads"
let k_truncations = Stats.counter "log.truncations"

let records ?stats vfs fd ~from =
  let size = vfs.Vfs.size fd in
  let fetch off want =
    let len = min want (size - off) in
    (match stats with
    | Some s ->
      Stats.bump_by s k_recovery_bytes_scanned len;
      Stats.bump s k_recovery_reads
    | None -> ());
    (off, vfs.Vfs.read fd ~off ~len)
  in
  let rec step ~base ~buf off () =
    if off >= size then Seq.Nil
    else if off < base || off >= base + Bytes.length buf then
      let base, buf = fetch off scan_chunk_bytes in
      decode ~base ~buf off ()
    else decode ~base ~buf off ()
  and decode ~base ~buf off () =
    match Logrec.decode buf (off - base) with
    | Some (rec_, next) -> Seq.Cons ((off, rec_), step ~base ~buf (base + next))
    | None ->
      if base + Bytes.length buf >= size then Seq.Nil (* true end of log *)
      else
        (* The record may straddle the window: re-read from here with a
           wider one (doubling, so this terminates at EOF). *)
        let base, buf = fetch off (2 * (Bytes.length buf + scan_chunk_bytes)) in
        decode ~base ~buf off ()
  in
  step ~base:0 ~buf:Bytes.empty (max 0 from)

let scan_end ?stats vfs fd =
  Seq.fold_left
    (fun _ (off, rec_) -> off + Logrec.size rec_)
    0
    (records ?stats vfs fd ~from:0)

let open_log ?tag clock stats cfg vfs ~path =
  let fd =
    if vfs.Vfs.exists path then vfs.Vfs.open_file path
    else begin
      let fd = vfs.Vfs.create path in
      (* Creating the environment is a utility operation: make the log's
         directory entry durable so recovery can find it after a crash —
         fsync alone covers the file, not its name. *)
      vfs.Vfs.sync ();
      fd
    end
  in
  let tail = scan_end ~stats vfs fd in
  (* Drop any torn tail so new records append at a clean boundary. *)
  if tail < vfs.Vfs.size fd then vfs.Vfs.truncate fd tail;
  (* Group-commit histograms are part of every benchmark artifact, even
     when the run never forces (or never waits). *)
  Stats.declare_at stats h_force;
  Stats.declare_at stats h_commit_batch;
  Stats.declare_at stats h_group_commit_wait;
  let stream_force = Option.map (fun tag -> Stats.series ("log." ^ tag ^ ".force")) tag in
  Option.iter (Stats.declare_at stats) stream_force;
  {
    clock;
    stats;
    cfg;
    vfs;
    fd;
    stream_force;
    buf = Buffer.create 4096;
    flushed = tail;
    pending_commits = 0;
    force_gen = 0;
    forcing = false;
    flush_cond = Sched.condition ();
  }

let flushed_lsn t = t.flushed
let next_lsn t = t.flushed + Buffer.length t.buf

let append t rec_ =
  Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Log_record;
  let lsn = next_lsn t in
  Buffer.add_bytes t.buf (Logrec.encode rec_);
  Stats.bump t.stats k_appends;
  lsn

let do_force t =
  (* Serialize: a second fiber snapshotting the same unflushed bytes
     while the first is parked in the write/fsync would double-write
     them and double-advance [flushed]. Followers wait the in-flight
     force out, then re-check — it may already have covered them. *)
  Sched.wait_while t.clock t.flush_cond (fun () -> t.forcing);
  if Buffer.length t.buf > 0 then begin
    t.forcing <- true;
    Fun.protect
      ~finally:(fun () -> t.forcing <- false)
      (fun () ->
        let t0 = Clock.now t.clock in
        let data = Buffer.to_bytes t.buf in
        t.vfs.Vfs.write t.fd ~off:t.flushed data;
        t.vfs.Vfs.fsync t.fd;
        t.flushed <- t.flushed + Bytes.length data;
        (* Records appended while we were parked in the write/fsync sit
           behind the snapshot: drop only the flushed prefix. *)
        let tail =
          Buffer.sub t.buf (Bytes.length data)
            (Buffer.length t.buf - Bytes.length data)
        in
        Buffer.clear t.buf;
        Buffer.add_string t.buf tail;
        if t.pending_commits > 0 then
          (* Group-commit batch size: how many committers shared this
             force. *)
          Stats.observe_at t.stats h_commit_batch
            (float_of_int t.pending_commits);
        t.pending_commits <- 0;
        Stats.bump t.stats k_forces;
        Stats.observe_at t.stats h_force (Clock.now t.clock -. t0);
        (match t.stream_force with
        | Some h -> Stats.observe_at t.stats h (Clock.now t.clock -. t0)
        | None -> ());
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "log.force"
            [
              ("bytes", Trace.I (Bytes.length data)); ("lsn", Trace.I t.flushed);
            ];
        (* The records are on disk: release any committers parked at the
           rendezvous. Incrementing after the fsync means a woken waiter
           whose record made the snapshot is guaranteed durable. *)
        t.force_gen <- t.force_gen + 1;
        Sched.wake t.clock t.flush_cond)
  end

let rec force t ~upto =
  if upto >= t.flushed then begin
    do_force t;
    (* Our record may have been appended after an in-flight force's
       snapshot, in which case waiting it out left us undone: go again
       for the remainder. *)
    if upto >= t.flushed then force t ~upto
  end

let force_commit t ~upto =
  if upto >= t.flushed then
    (* A force already in flight snapshotted the buffer before our
       record went in: wait it out and join the NEXT batch rather than
       chasing it with a batch of one — arrivals accumulate while the
       log arm is busy, which is what fills group-commit batches at
       high MPL. *)
    Sched.wait_while t.clock t.flush_cond (fun () -> t.forcing);
  if upto >= t.flushed then begin
    t.pending_commits <- t.pending_commits + 1;
    let timeout = t.cfg.Config.fs.group_commit_timeout_s in
    if timeout <= 0.0 || t.pending_commits >= t.cfg.Config.fs.group_commit_size
    then do_force t
    else begin
      match Sched.current t.clock with
      | Some sched ->
        (* Real rendezvous: park until the batch fills (a later
           committer's inline force) or our batch's timeout process
           fires. The first committer of a batch arms the timeout. *)
        let gen = t.force_gen in
        let t0 = Clock.now t.clock in
        if t.pending_commits = 1 then
          Sched.spawn ~daemon:true sched (fun () ->
              Sched.delay sched timeout;
              if t.force_gen = gen then do_force t);
        while t.force_gen = gen do
          Sched.wait sched t.flush_cond
        done;
        (* The force that moved the generation snapshotted the buffer
           before parking in its write/fsync; a record appended after
           that snapshot is still volatile. Force the remainder. *)
        if upto >= t.flushed then force t ~upto;
        let waited = Clock.now t.clock -. t0 in
        Stats.add_to t.stats k_group_commit_wait waited;
        Stats.observe_at t.stats h_group_commit_wait waited
      | None ->
        (* Wait for company; at MPL 1 nobody arrives and the timeout
           expires (Section 4.4). *)
        Clock.advance t.clock timeout;
        Stats.add_to t.stats k_group_commit_wait timeout;
        Stats.observe_at t.stats h_group_commit_wait timeout;
        do_force t
    end
  end

let read_from t lsn = records ~stats:t.stats t.vfs t.fd ~from:lsn

let truncate t =
  (* Serialize with [do_force]: a force parked inside its write/fsync
     has already snapshotted the buffer and will advance [flushed] by
     the snapshot length when it resumes — truncating under it would
     reset [flushed] to 0 only to have the force march it past the now
     empty file. Wait the in-flight force out, then hold the same mutex
     across our own (yielding) truncate/fsync so no new force starts
     against the half-truncated file. *)
  let sched = Sched.current t.clock in
  Sched.wait_while t.clock t.flush_cond (fun () -> t.forcing);
  if Buffer.length t.buf > 0 then
    invalid_arg "Logmgr.truncate: unflushed records";
  t.forcing <- true;
  Fun.protect
    ~finally:(fun () ->
      t.forcing <- false;
      Option.iter (fun s -> Sched.broadcast s t.flush_cond) sched)
    (fun () ->
      t.vfs.Vfs.truncate t.fd 0;
      t.vfs.Vfs.fsync t.fd;
      t.flushed <- 0);
  Stats.bump t.stats k_truncations

