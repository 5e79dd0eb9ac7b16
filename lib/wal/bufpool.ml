(* Per-page log watermark. With parallel log streams a page may carry
   updates in several streams; the WAL rule then requires forcing every
   stream through its watermark before the page reaches disk. The last
   writer (stream, lsn) is the cross-stream chain pointer recorded by
   the page's next update. *)
type tag = {
  vec : Logrec.lsn array; (* per-stream highest update LSN, -1 = none *)
  mutable last_stream : int;
  mutable last_lsn : Logrec.lsn;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  vfs : Vfs.t;
  logs : Logset.t;
  cache : Cache.t;
  lsns : (int * int, tag) Hashtbl.t; (* (file,page) -> log watermarks *)
  ps : int;
}

let page_size t = t.ps

let k_writebacks = Stats.counter "pool.writebacks"

let write_back t (f : Cache.frame) =
  (* WAL rule: every log stream must cover the page's last update in
     that stream before the page itself reaches disk. *)
  (match Hashtbl.find_opt t.lsns (f.Cache.file, f.Cache.lblock) with
  | Some tag ->
    Array.iteri
      (fun s lsn -> if lsn >= 0 then Logmgr.force (Logset.get t.logs s) ~upto:lsn)
      tag.vec
  | None -> ());
  t.vfs.Vfs.write f.Cache.file ~off:(f.Cache.lblock * t.ps) f.Cache.data;
  Stats.bump t.stats k_writebacks

let create clock stats (cfg : Config.t) vfs logs ~pages =
  let ps = vfs.Vfs.block_size in
  let cache = Cache.create clock stats cfg.cpu ~capacity:pages in
  let t = { clock; stats; cfg; vfs; logs; cache; lsns = Hashtbl.create 256; ps } in
  Cache.set_writeback cache (fun f -> write_back t f);
  t

let latch t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.User_mutex

(* The page's frame, loaded on a miss; the caller holds the latch. *)
let frame t ~file ~page =
  match Cache.lookup t.cache ~file ~lblock:page with
  | Some f -> f
  | None ->
    (* The pool frame adopts a private copy of the file system's page,
       made in a buffer from the block pool. *)
    let page_bytes = Vfs.read_page t.vfs file page in
    let data = Blockpool.take t.ps in
    Bytes.blit page_bytes 0 data 0 t.ps;
    Cache.insert t.cache ~file ~lblock:page data

let get t ~file ~page =
  latch t;
  (frame t ~file ~page).Cache.data

type update = { off : int; data : bytes; stream : int; lsn : Logrec.lsn }

let apply t ~file ~page updates =
  latch t;
  let f = frame t ~file ~page in
  let tag =
    match Hashtbl.find_opt t.lsns (file, page) with
    | Some tag -> tag
    | None ->
      let tag =
        {
          vec = Array.make (Logset.n t.logs) (-1);
          last_stream = -1;
          last_lsn = Logrec.null_lsn;
        }
      in
      Hashtbl.replace t.lsns (file, page) tag;
      tag
  in
  List.iter
    (fun { off; data; stream; lsn } ->
      Bytes.blit data 0 f.Cache.data off (Bytes.length data);
      tag.vec.(stream) <- max tag.vec.(stream) lsn;
      tag.last_stream <- stream;
      tag.last_lsn <- lsn)
    updates;
  Cache.mark_dirty t.cache f

let chain t ~file ~page =
  match Hashtbl.find_opt t.lsns (file, page) with
  | Some tag -> (tag.last_stream, tag.last_lsn)
  | None -> (-1, Logrec.null_lsn)

let merge_deps t ~file ~page deps =
  (* A true dependency — a byte range this transaction read or overwrote
     — is always lock-serialized: its writer committed, and therefore
     forced its stream, before the lock could pass to us. An entry still
     unflushed in its stream is the other case: a concurrent holder of a
     different record on the same page (record-grain locking), whose
     bytes we neither read nor replaced. Filtering those keeps the
     commit's vector LSN to real dependencies — merging them would make
     every co-located commit force the other stream mid-rendezvous and
     serialize the streams on shared pages. The page tag keeps the full
     vector: the WAL write-back rule must cover uncommitted before-images
     regardless of who holds the locks. *)
  match Hashtbl.find_opt t.lsns (file, page) with
  | Some tag ->
    Array.iteri
      (fun s lsn ->
        if lsn > deps.(s) && lsn < Logmgr.flushed_lsn (Logset.get t.logs s)
        then deps.(s) <- lsn)
      tag.vec
  | None -> ()

let reset_lsns t = Hashtbl.reset t.lsns

(* A buffer scope: the frames are held across the log forces and the
   write-backs, each of which may park. *)
let flush_all t =
  Blockpool.scope @@ fun () ->
  let frames = Cache.dirty_frames t.cache () in
  (match frames with [] -> () | _ -> Logset.force_all t.logs);
  let files = Hashtbl.create 8 in
  List.iter
    (fun f ->
      write_back t f;
      Cache.mark_clean t.cache f;
      Hashtbl.replace files f.Cache.file ())
    frames;
  Hashtbl.iter (fun fd () -> t.vfs.Vfs.fsync fd) files

