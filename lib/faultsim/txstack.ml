type backend = Ffs_user | Lfs_user | Lfs_kernel

let backends =
  [ ("ffs-user", Ffs_user); ("lfs-user", Lfs_user); ("lfs-kernel", Lfs_kernel) ]

let name b = fst (List.find (fun (_, b') -> b' = b) backends)

let label = function
  | Ffs_user -> "read-optimized / user-level"
  | Lfs_user -> "LFS / user-level"
  | Lfs_kernel -> "LFS / kernel (embedded)"

type machine = {
  backend : backend;
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;
}

let machine backend cfg =
  let clock = Clock.create () in
  let stats = Stats.create () in
  {
    backend;
    cfg;
    clock;
    stats;
    disks =
      Diskset.create ~route_checkpoints:(backend = Lfs_kernel) clock stats cfg;
  }

type fs = Ffs of Ffs.t | Lfs of Lfs.t

let format m =
  match m.backend with
  | Ffs_user -> Ffs (Ffs.format (Diskset.primary m.disks) m.clock m.stats m.cfg)
  | Lfs_user | Lfs_kernel -> Lfs (Lfs.format m.disks m.clock m.stats m.cfg)

let fs_vfs = function Ffs fs -> Ffs.vfs fs | Lfs fs -> Lfs.vfs fs

type wal = { pool_pages : int; checkpoint_every : int; log_path : string }

type t = {
  machine : machine;
  fs : fs;
  vfs : Vfs.t;
  txn : Tpcb.backend;
  wal : wal;
  logs : Ffs.t array;
}

(* With log spindles each stream lives in its own small FFS, so commit
   forces never move the data heads; otherwise the streams are files in
   the data file system. *)
let open_env m wal data_vfs logs =
  let { pool_pages; checkpoint_every; log_path } = wal in
  match logs with
  | [||] ->
    Libtp.open_env m.clock m.stats m.cfg data_vfs ~pool_pages ~checkpoint_every
      ~log_path ()
  | logs ->
    Libtp.open_env m.clock m.stats m.cfg data_vfs
      ~log_vfss:(Array.map Ffs.vfs logs) ~pool_pages ~checkpoint_every
      ~log_path:"/log" ()

let boot ~wal ~populate m =
  let fs = format m in
  let vfs = fs_vfs fs in
  let populated = populate vfs in
  let txn, logs =
    match (m.backend, fs) with
    | Lfs_kernel, Lfs lfs -> (Tpcb.Kernel (Ktxn.create lfs), [||])
    | _ ->
      let logs =
        Array.map
          (fun d -> Ffs.format d m.clock m.stats m.cfg)
          (Diskset.log_disks m.disks)
      in
      (Tpcb.User (open_env m wal vfs logs), logs)
  in
  ({ machine = m; fs; vfs; txn; wal; logs }, populated)

let lfs t = match t.fs with Lfs fs -> Some fs | Ffs _ -> None

let boot_tpcb ?mpl ?(prepare = ignore) ~wal ~scale ~rng m =
  (* Attached before anything boots, so every component that asks
     [Sched.of_clock] finds it. Setup itself runs outside any process,
     where nothing waits. *)
  let sched = Option.map (fun _ -> Sched.create m.clock) mpl in
  let stack, db =
    boot ~wal m ~populate:(fun v ->
        Tpcb.build m.clock m.stats m.cfg v ~rng ~scale)
  in
  (match stack.txn with Tpcb.Kernel k -> Tpcb.protect_all db k | User _ -> ());
  prepare stack;
  if sched <> None then Option.iter Lfs.start_background (lfs stack);
  (stack, db, sched)

let fsck_or_fail what fs =
  let rep = Ffs.fsck fs in
  if rep.Ffs.cross_allocated > 0 then
    failwith
      (Printf.sprintf "%s: %d cross-allocated blocks" what rep.Ffs.cross_allocated)

let crash_and_recover t =
  let m = t.machine in
  (match t.fs with Ffs fs -> Ffs.crash fs | Lfs fs -> Lfs.crash fs);
  Array.iter Ffs.crash t.logs;
  let log_disks = Diskset.log_disks m.disks in
  let logs =
    Array.mapi
      (fun i _ ->
        let fs = Ffs.mount log_disks.(i) m.clock m.stats m.cfg in
        fsck_or_fail "log fsck" fs;
        fs)
      t.logs
  in
  let vfs, check =
    match t.fs with
    | Lfs _ ->
      let fs = Lfs.mount m.disks m.clock m.stats m.cfg in
      (Lfs.vfs fs, fun () -> Lfs.check fs)
    | Ffs _ ->
      let fs = Ffs.mount (Diskset.primary m.disks) m.clock m.stats m.cfg in
      fsck_or_fail "fsck" fs;
      (Ffs.vfs fs, fun () -> fsck_or_fail "fsck" fs)
  in
  (match t.txn with
  | Tpcb.User _ -> ignore (open_env m t.wal vfs logs)
  | Tpcb.Kernel _ -> ());
  (vfs, check)
