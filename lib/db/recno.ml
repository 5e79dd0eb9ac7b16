let magic = 0x52454331 (* "REC1" *)

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  pager : Pager.t;
  rl : int;
  mutable n : int;
}

let per_page t = t.pager.Pager.page_size / t.rl

(* The header is written through [put_sys]: a redo-only system write.
   At record grain the record count is protected by the header latch,
   not a lock, and must survive an aborted append — the aborted record
   bytes are undone to a zeroed hole, but the allocation stands. The
   record's own update is always logged before the count update, so a
   durable count implies durable records below it. At page grain
   [put_sys] is just [put] and nothing changes. *)
let write_meta t =
  Pager.lend t.pager (fun b ->
      Enc.set_u32 b 0 magic;
      Enc.set_u32 b 4 t.rl;
      Enc.set_u32 b 8 t.n;
      Bytes.fill b 12 (Bytes.length b - 12) '\000';
      t.pager.Pager.put_sys 0 b)

let attach clock stats cpu (pager : Pager.t) ~reclen =
  if reclen <= 0 || reclen > pager.Pager.page_size then
    invalid_arg "Recno.attach: record length must fit in a page";
  let meta = pager.Pager.get 0 in
  if Enc.get_u32 meta 0 = magic then begin
    let stored = Enc.get_u32 meta 4 in
    if stored <> reclen then
      invalid_arg
        (Printf.sprintf "Recno.attach: record length %d, file has %d" reclen
           stored);
    { clock; stats; cpu; pager; rl = reclen; n = Enc.get_u32 meta 8 }
  end
  else begin
    let t = { clock; stats; cpu; pager; rl = reclen; n = 0 } in
    write_meta t;
    t
  end

let count t = t.n

let charge t kind = Cpu.charge t.clock t.stats t.cpu kind

let location t recno =
  let pp = per_page t in
  (1 + (recno / pp), recno mod pp * t.rl)

let check_size t data =
  if Bytes.length data <> t.rl then
    invalid_arg
      (Printf.sprintf "Recno: record must be %d bytes, got %d" t.rl
         (Bytes.length data))

(* Re-read the record count. The count only ever moves through a single
   u32 in one atomic page update, so a latch-free read sees a valid
   (monotonic) value. *)
let refresh t =
  if t.pager.Pager.record_grain then begin
    let meta = t.pager.Pager.get 0 in
    if Enc.get_u32 meta 0 = magic then t.n <- Enc.get_u32 meta 8
  end

let set_at t recno data =
  let page, off = location t recno in
  let cur = t.pager.Pager.get page in
  Pager.write t.pager page (fun b ->
      Bytes.blit cur 0 b 0 (Bytes.length b);
      Bytes.blit data 0 b off t.rl)

(* Record-grain append protocol: the exclusive header latch makes the
   slot allocation atomic; the record lock covers the new slot to
   commit (if it must wait — an escalated page lock — the latches drop
   and the operation restarts with a fresh count); the data-page latch
   covers the read-modify-write; the count moves last, as a redo-only
   system write. An abort after the count moved leaves a zeroed hole,
   which history readers skip. *)
let append t data =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      check_size t data;
      if t.pager.Pager.record_grain then begin
        t.pager.Pager.latch_page ~page:0 ~write:true;
        refresh t;
        let recno = t.n in
        let page, _ = location t recno in
        t.pager.Pager.lock_rec ~page ~recno ~write:true;
        t.pager.Pager.latch_page ~page ~write:true;
        set_at t recno data;
        t.n <- recno + 1;
        write_meta t;
        recno
      end
      else begin
        let recno = t.n in
        set_at t recno data;
        t.n <- recno + 1;
        write_meta t;
        recno
      end)

let get t recno =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      refresh t;
      if recno < 0 || recno >= t.n then raise Not_found;
      let page, off = location t recno in
      if t.pager.Pager.record_grain then
        t.pager.Pager.lock_rec ~page ~recno ~write:false;
      Bytes.sub (t.pager.Pager.get page) off t.rl)

let set t recno data =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      check_size t data;
      refresh t;
      if recno < 0 || recno >= t.n then raise Not_found;
      if t.pager.Pager.record_grain then begin
        let page, _ = location t recno in
        t.pager.Pager.lock_rec ~page ~recno ~write:true;
        t.pager.Pager.latch_page ~page ~write:true
      end;
      set_at t recno data)

let iter t f =
  Pager.with_op t.pager (fun () ->
      if t.pager.Pager.record_grain then begin
        t.pager.Pager.lock_file ~write:false;
        refresh t
      end;
      let continue_ = ref true in
      let recno = ref 0 in
      while !continue_ && !recno < t.n do
        charge t Cpu.Cursor_next;
        let page, off = location t !recno in
        (* Each record is copied out, so no view is held here. *)
        Blockpool.quiesce ();
        let data = Bytes.sub (t.pager.Pager.get page) off t.rl in
        continue_ := f !recno data;
        incr recno
      done)
