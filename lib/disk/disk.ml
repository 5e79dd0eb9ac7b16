exception Injected_crash

type injector = {
  on_write : blkno:int -> nblocks:int -> int;
  on_read : blkno:int -> nblocks:int -> bool;
}

(* A read parked in the live request queue, waiting for the server
   process to reach it. Bytes are captured at SERVICE time, not submit
   time: a synchronous multi-block write holds the device and only
   persists its run when its service delay elapses, so a read queued
   behind it must return the post-write platter — that is what the
   physical head reads once it finally reaches the sectors. Capturing at
   submit once handed a committer a zeroed snapshot of a block whose
   in-flight write carried the real bytes; the address had already been
   updated when the read was issued, so the caller's relocation chase
   could not catch it. [persist] stores its run with no yield inside, so
   a service-time capture never observes a torn run. *)
type pending = {
  p_blkno : int;
  p_nblocks : int;
  p_into : bytes;  (* the submitter's buffer, filled at service time *)
  p_submitted : float;
  mutable p_done : bool;
  p_cond : Sched.cond;
}

(* Stat handles, registered from the prefix at create time so multi-disk
   machines report per-spindle counters ("disk0.busy", "disklog.seek",
   ...) without per-op string building or hashing. The default prefix
   "disk" keeps every single-disk name bit-for-bit identical to before.
   [<prefix>.seek] names both a time and a histogram. *)
type keys = {
  k_busy : Stats.timer;
  k_seek : Stats.timer;
  k_seek_hist : Stats.series;
  k_seek_queued : Stats.series;
  k_seeks : Stats.counter;
  k_requests : Stats.counter;
  k_blocks_written : Stats.counter;
  k_blocks_read : Stats.counter;
  k_read_service : Stats.series;
  k_write_service : Stats.series;
  k_rotation : Stats.series;
  k_transfer : Stats.series;
  k_read_qwait : Stats.series;
  k_read_retries : Stats.counter;
  k_queue_enqueued : Stats.counter;
  k_queue_depth : Stats.maximum;
  k_op : string;
}

let make_keys pfx =
  let k s = pfx ^ s in
  {
    k_busy = Stats.timer (k ".busy");
    k_seek = Stats.timer (k ".seek");
    k_seek_hist = Stats.series (k ".seek");
    k_seek_queued = Stats.series (k ".seek.queued");
    k_seeks = Stats.counter (k ".seeks");
    k_requests = Stats.counter (k ".requests");
    k_blocks_written = Stats.counter (k ".blocks_written");
    k_blocks_read = Stats.counter (k ".blocks_read");
    k_read_service = Stats.series (k ".read.service");
    k_write_service = Stats.series (k ".write.service");
    k_rotation = Stats.series (k ".rotation");
    k_transfer = Stats.series (k ".transfer");
    k_read_qwait = Stats.series (k ".read.qwait");
    k_read_retries = Stats.counter (k ".read_retries");
    k_queue_enqueued = Stats.counter (k ".queue.enqueued");
    k_queue_depth = Stats.maximum (k ".queue.depth");
    k_op = k ".op";
  }

(* The platter is an array of extents: the boot region, then one per
   segment-sized stripe unit, the last one cut short at the end of the
   disk. Diskset lays every LFS segment, cleaner victim and roll-forward
   view inside one extent, so those runs are views of one buffer. An
   extent never written is [zero], a read-only zero buffer at least as
   long as the longest extent; its first write gives it a buffer of its
   own. Reads never allocate one. *)
type t = {
  extents : bytes array;
  zero : bytes;
  boot : int; (* blocks in extent 0 *)
  extent_blocks : int; (* blocks in every later extent but the last *)
  cfg : Config.disk;
  clock : Clock.t;
  stats : Stats.t;
  keys : keys;
  mutable head : int;
  mutable injector : injector option;
  mutable queue : pending list;
  mutable serving : bool;
  mutable server : Sched.t option;
      (* the scheduler whose process serves [queue]: a scheduler
         abandoned by an exception (a crash) takes its server and the
         waiters of [queue] with it *)
  mutable busy_until : float;
      (* device occupancy horizon under the discrete-event scheduler:
         a request issued from a process waits until the arm is free.
         Meaningless (always in the past) on the no-scheduler paths. *)
}

(* The zero buffer every spindle's never-written extents share: the
   longest any spindle has asked for. A longer request replaces it for
   spindles created later; earlier ones keep theirs. *)
let shared_zero = ref Bytes.empty

let zero_of_length len =
  if Bytes.length !shared_zero < len then shared_zero := Bytes.make len '\000';
  !shared_zero

let create ?(prefix = "disk") ~boot_blocks ~extent_blocks clock stats
    (cfg : Config.disk) =
  if cfg.nblocks <= 0 || cfg.block_size <= 0 || boot_blocks < 0 || extent_blocks <= 0
  then invalid_arg "Disk.create: bad geometry";
  let boot = min boot_blocks cfg.nblocks in
  let nextents = 1 + ((cfg.nblocks - boot + extent_blocks - 1) / extent_blocks) in
  let zero = zero_of_length (max boot extent_blocks * cfg.block_size) in
  let keys = make_keys prefix in
  (* Per-op latency histograms exist from boot so every benchmark
     artifact carries them, samples or not. *)
  List.iter (Stats.declare_at stats)
    [
      keys.k_read_service;
      keys.k_write_service;
      keys.k_seek_hist;
      keys.k_seek_queued;
      keys.k_rotation;
      keys.k_transfer;
      keys.k_read_qwait;
    ];
  {
    extents = Array.make nextents zero;
    zero;
    boot;
    extent_blocks;
    cfg;
    clock;
    stats;
    keys;
    head = 0;
    injector = None;
    queue = [];
    serving = false;
    server = None;
    busy_until = 0.0;
  }

let set_injector t inj = t.injector <- inj

let nblocks t = t.cfg.nblocks
let block_size t = t.cfg.block_size

let check_range t blkno n =
  if blkno < 0 || n < 0 || blkno + n > t.cfg.nblocks then
    invalid_arg
      (Printf.sprintf "Disk: blocks [%d..%d) out of range [0..%d)" blkno
         (blkno + n) t.cfg.nblocks)

(* Extent [i] holds blocks [extent_start t i, extent_end t i). *)
let extent_of t blkno =
  if blkno < t.boot then 0 else 1 + ((blkno - t.boot) / t.extent_blocks)

let extent_end t i =
  if i = 0 then t.boot else min t.cfg.nblocks (t.boot + (i * t.extent_blocks))

let extent_start t i = if i = 0 then 0 else extent_end t (i - 1)

let resident_extents t =
  Array.fold_left (fun n e -> if e == t.zero then n else n + 1) 0 t.extents

(* Copy blocks [blkno, blkno + n) into [dst] at [doff], one blit per
   extent; a never-written extent is copied from [zero]. *)
let rec blit_out t blkno n dst doff =
  if n > 0 then begin
    let bs = t.cfg.block_size in
    let i = extent_of t blkno in
    let len = min n (extent_end t i - blkno) in
    Bytes.blit t.extents.(i) ((blkno - extent_start t i) * bs) dst doff (len * bs);
    blit_out t (blkno + len) (n - len) dst (doff + (len * bs))
  end

let copy_out t blkno n =
  let buf = Bytes.create (n * t.cfg.block_size) in
  blit_out t blkno n buf 0;
  buf

(* Store [len] bytes of [src] from [off] at [blkno], one blit per
   extent, giving each never-written extent its own buffer first. *)
let rec store t blkno src off len =
  if len > 0 then begin
    let bs = t.cfg.block_size in
    let i = extent_of t blkno in
    let start = extent_start t i in
    let n = min (len / bs) (extent_end t i - blkno) in
    if t.extents.(i) == t.zero then
      t.extents.(i) <- Bytes.make ((extent_end t i - start) * bs) '\000';
    Bytes.blit src off t.extents.(i) ((blkno - start) * bs) (n * bs);
    store t (blkno + n) src (off + (n * bs)) (len - (n * bs))
  end

let cylinder t blkno = blkno / t.cfg.blocks_per_cylinder

let ncylinders t =
  (t.cfg.nblocks + t.cfg.blocks_per_cylinder - 1) / t.cfg.blocks_per_cylinder

let seek_time t ~from ~target =
  let d = abs (cylinder t target - cylinder t from) in
  if d = 0 then 0.0
  else
    let c = max 2 (ncylinders t) in
    let frac = sqrt (float_of_int (d - 1)) /. sqrt (float_of_int (c - 1)) in
    t.cfg.min_seek_s +. ((t.cfg.max_seek_s -. t.cfg.min_seek_s) *. frac)

let rotation_time t = 0.5 *. (60.0 /. t.cfg.rpm)

let transfer_time t nblocks =
  float_of_int (nblocks * t.cfg.block_size) /. t.cfg.transfer_bytes_per_s

(* What one request costs from the current head position: the one
   computation behind [service_time], [serve] and [serve_queue]. A
   request that continues exactly where the head stopped streams with no
   positioning cost at all (the common case for log/segment writes). A
   [queued] write pays a discounted seek and rotation (disk.mli). *)
type cost = { seek : float; rot : float; xfer : float; dt : float }

let cost ?(queued = false) t blkno ~nblocks =
  let seek = seek_time t ~from:t.head ~target:blkno in
  let rot =
    if queued then 0.75 *. rotation_time t
    else if seek = 0.0 && blkno = t.head then 0.0
    else rotation_time t
  in
  let seek = if queued then 0.3 *. seek else seek in
  let xfer = transfer_time t nblocks in
  { seek; rot; xfer; dt = seek +. rot +. xfer }

let service_time t blkno ~nblocks = (cost t blkno ~nblocks).dt

(* Block the calling process until the arm is free. Loop: several
   waiters can wake at the same horizon and only the first to run gets
   the device (it pushes [busy_until] out again). *)
let wait_device t sched =
  while t.busy_until > Clock.now t.clock do
    Sched.sleep_until sched t.busy_until
  done

(* One request's accounting, shared by the synchronous path and the
   elevator's server process. Count the seek actually charged: a queued
   write pays a discounted seek, so the counter condition tests [seek],
   and its samples go to their own histogram so the elevator's benefit
   stays visible next to the cold-seek distribution. A read the elevator
   serves pays the full seek and is not [queued] here. *)
let account t ~write ~queued c ~nblocks =
  let s = t.stats and k = t.keys in
  Stats.add_to s k.k_busy c.dt;
  Stats.add_to s k.k_seek c.seek;
  if c.seek > 0.0 then Stats.bump s k.k_seeks;
  Stats.bump s k.k_requests;
  Stats.bump_by s (if write then k.k_blocks_written else k.k_blocks_read) nblocks;
  Stats.observe_at s (if write then k.k_write_service else k.k_read_service) c.dt;
  Stats.observe_at s (if queued then k.k_seek_queued else k.k_seek_hist) c.seek;
  Stats.observe_at s k.k_rotation c.rot;
  Stats.observe_at s k.k_transfer c.xfer

(* Hold the arm for [dt]: under a scheduler other processes run
   meanwhile; outside one the clock just jumps. *)
let hold t sched dt =
  match sched with
  | Some s ->
    t.busy_until <- Clock.now t.clock +. dt;
    Sched.delay s dt
  | None -> Clock.advance t.clock dt

(* The [disk.op] trace event of one served request. A read the queue
   server served ([queued] and not [write]) also names how many requests
   are still queued behind it. *)
let trace_op t ~write ~queued blkno ~nblocks dt =
  if Stats.tracing t.stats then
    Stats.emit t.stats ~time:(Clock.now t.clock) t.keys.k_op
      (("rw", Trace.S (if write then "w" else "r"))
      :: ("blkno", Trace.I blkno)
      :: ("nblocks", Trace.I nblocks)
      :: ("queued", Trace.B queued)
      :: ("service_s", Trace.F dt)
      :: (if queued && not write then [ ("qdepth", Trace.I (List.length t.queue)) ]
          else []))

let serve ?(queued = false) t blkno ~nblocks ~write =
  check_range t blkno nblocks;
  (* Under the discrete-event scheduler each spindle is a real shared
     resource: a synchronous request issued from a process waits for the
     arm, then holds it for its service time while other processes (on
     other spindles) keep running. Outside the scheduler the clock just
     jumps, exactly as before. Positioning costs are computed only after
     the wait — the head may have moved while we queued. *)
  let sched = Sched.current t.clock in
  Option.iter (wait_device t) sched;
  let c = cost ~queued t blkno ~nblocks in
  hold t sched c.dt;
  account t ~write ~queued c ~nblocks;
  trace_op t ~write ~queued blkno ~nblocks c.dt;
  t.head <- blkno + nblocks

(* A transient read error costs a full revolution (the sector comes
   around again) and a retry. The injector promises eventual success, so
   the caller never sees the failure — only the clock and stats do. *)
let retry_reads t blkno n =
  match t.injector with
  | None -> ()
  | Some inj ->
    while inj.on_read ~blkno ~nblocks:n do
      Clock.advance t.clock (2.0 *. rotation_time t);
      Stats.add_to t.stats t.keys.k_busy (2.0 *. rotation_time t);
      Stats.bump t.stats t.keys.k_read_retries
    done

(* The synchronous read paths: service and retries, then the run. A
   run inside one extent is viewed in that extent's buffer (or in
   [zero]); one that crosses an extent boundary is assembled. *)
let read_run_view t blkno n =
  serve t blkno ~nblocks:n ~write:false;
  retry_reads t blkno n;
  let i = extent_of t blkno in
  if n > 0 && blkno + n <= extent_end t i then
    (t.extents.(i), (blkno - extent_start t i) * t.cfg.block_size)
  else (copy_out t blkno n, 0)

let read_run t blkno n =
  serve t blkno ~nblocks:n ~write:false;
  retry_reads t blkno n;
  copy_out t blkno n

let read t blkno = read_run t blkno 1

let check_block t what buf =
  if Bytes.length buf <> t.cfg.block_size then
    invalid_arg (what ^ ": buffer must be exactly one block")

let read_into t blkno buf =
  check_block t "Disk.read_into" buf;
  serve t blkno ~nblocks:1 ~write:false;
  retry_reads t blkno 1;
  blit_out t blkno 1 buf 0

(* Persist [data] at [blkno], honouring the injector: only the first
   [keep] blocks reach the platter, and if the injector truncated or
   ended the run it also kills the machine — the write never returns.
   Power failure is modelled at sector granularity: individual blocks
   are atomic, multi-block runs tear on a block boundary. *)
let persist t blkno data ~off ~len =
  let bs = t.cfg.block_size in
  let n = len / bs in
  match t.injector with
  | None -> store t blkno data off len
  | Some inj ->
    let keep = inj.on_write ~blkno ~nblocks:n in
    let keep = max 0 (min keep n) in
    store t blkno data off (keep * bs);
    if keep < n then raise Injected_crash

let write_run_sub t blkno data ~off ~len =
  let bs = t.cfg.block_size in
  if len <= 0 || len mod bs <> 0 then
    invalid_arg "Disk.write: data must be a positive whole number of blocks";
  if off < 0 || off > Bytes.length data - len then
    invalid_arg "Disk.write_run_sub: range outside the buffer";
  serve t blkno ~nblocks:(len / bs) ~write:true;
  persist t blkno data ~off ~len

let write_run t blkno data =
  write_run_sub t blkno data ~off:0 ~len:(Bytes.length data)

let write t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write: data must be exactly one block";
  write_run t blkno data

let write_queued t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write_queued: data must be exactly one block";
  serve ~queued:true t blkno ~nblocks:1 ~write:true;
  persist t blkno data ~off:0 ~len:t.cfg.block_size

(* The disk server process: as long as requests are queued, pick the
   next one by C-LOOK from the *live* head position, hold the device for
   its service time (other processes run meanwhile), then wake the
   submitter. Positioning costs use the same arithmetic as the
   synchronous path — the elevator's benefit under load comes from the
   ordering itself shortening seeks, not from a modelled discount. *)
let rec serve_queue t sched =
  match t.queue with
  | [] -> t.serving <- false
  | _ ->
    (* Respect the occupancy horizon a synchronous request may have set,
       and pick only after the wait — the queue and head position can
       both change while the daemon is parked. *)
    wait_device t sched;
    (match t.queue with
     | [] -> t.serving <- false
     | reqs ->
    let pick =
      match
        Elevator.order ~head:t.head
          (List.map (fun r -> (r.p_blkno, r)) reqs)
      with
      | (_, r) :: _ -> r
      | [] -> assert false
    in
    t.queue <- List.filter (fun r -> r != pick) t.queue;
    let c = cost t pick.p_blkno ~nblocks:pick.p_nblocks in
    hold t (Some sched) c.dt;
    account t ~write:false ~queued:false c ~nblocks:pick.p_nblocks;
    t.head <- pick.p_blkno + pick.p_nblocks;
    retry_reads t pick.p_blkno pick.p_nblocks;
    blit_out t pick.p_blkno pick.p_nblocks pick.p_into 0;
    Stats.observe_at t.stats t.keys.k_read_qwait
      (Clock.now t.clock -. pick.p_submitted);
    trace_op t ~write:false ~queued:true pick.p_blkno ~nblocks:pick.p_nblocks c.dt;
    pick.p_done <- true;
    Sched.broadcast sched pick.p_cond;
    serve_queue t sched)

let read_async t blkno buf =
  match Sched.current t.clock with
  | Some sched ->
    check_range t blkno 1;
    check_block t "Disk.read_async" buf;
    (match t.server with
     | Some s when s == sched -> ()
     | _ ->
       (* Whatever is queued belongs to a scheduler no one will run
          again: its requests have no one waiting and its server will
          never pick another. *)
       t.queue <- [];
       t.serving <- false;
       t.server <- Some sched);
    let p =
      {
        p_blkno = blkno;
        p_nblocks = 1;
        p_into = buf;  (* filled at service time; see [pending] *)
        p_submitted = Clock.now t.clock;
        p_done = false;
        p_cond = Sched.condition ();
      }
    in
    t.queue <- t.queue @ [ p ];
    Stats.bump t.stats t.keys.k_queue_enqueued;
    Stats.note_max t.stats t.keys.k_queue_depth
      (float_of_int (List.length t.queue + if t.serving then 1 else 0));
    if not t.serving then begin
      t.serving <- true;
      Sched.spawn ~daemon:true sched (fun () -> serve_queue t sched)
    end;
    while not p.p_done do
      Sched.wait sched p.p_cond
    done
  | None -> read_into t blkno buf

let head t = t.head

(* Outstanding requests at this spindle: the elevator queue plus the one
   the server process is currently positioning for. The synchronous
   read/write paths never enqueue, so a non-zero depth means scheduler
   processes are actively waiting on this arm. *)
let queue_depth t = List.length t.queue + if t.serving then 1 else 0

let peek t blkno =
  check_range t blkno 1;
  copy_out t blkno 1

let poke t blkno data =
  check_range t blkno 1;
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.poke: data must be exactly one block";
  store t blkno data 0 t.cfg.block_size
