exception Entry_too_large

let magic = 0x48534831 (* "HSH1" *)

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  pager : Pager.t;
  buckets : int;
  mutable npages : int;
  mutable n : int;
}

(* Bucket page: u16 nentries | u32 overflow | entries (u16 klen | u16 vlen |
   key | value). Page 0 is the meta page; bucket i lives on page 1+i. *)

let write_meta t =
  Pager.write t.pager 0 (fun b ->
      Enc.set_u32 b 0 magic;
      Enc.set_u32 b 4 t.buckets;
      Enc.set_u32 b 8 t.npages;
      Enc.set_u32 b 12 t.n;
      Bytes.fill b 16 (Bytes.length b - 16) '\000')

let attach clock stats cpu (pager : Pager.t) ~buckets =
  if buckets <= 0 then invalid_arg "Hashdb.attach: buckets must be positive";
  let meta = pager.Pager.get 0 in
  if Enc.get_u32 meta 0 = magic then
    {
      clock;
      stats;
      cpu;
      pager;
      buckets = Enc.get_u32 meta 4;
      npages = Enc.get_u32 meta 8;
      n = Enc.get_u32 meta 12;
    }
  else begin
    if Enc.get_u32 meta 0 <> 0 then
      invalid_arg "Hashdb.attach: the file holds another access method";
    let t = { clock; stats; cpu; pager; buckets; npages = 1 + buckets; n = 0 } in
    for i = 1 to buckets do
      Pager.write pager i (fun b -> Bytes.fill b 0 (Bytes.length b) '\000')
    done;
    write_meta t;
    t
  end

let count t = t.n
let charge t kind = Cpu.charge t.clock t.stats t.cpu kind

let hash key = Hashtbl.hash key

let bucket_page t key = 1 + (hash key mod t.buckets)

let decode_bucket b =
  let n = Enc.get_u16 b 0 in
  let overflow = Enc.get_u32 b 2 in
  let off = ref 6 in
  let items =
    List.init n (fun _ ->
        let ((k, v) as e) = Enc.get_entry b !off in
        off := !off + Enc.entry_size k v;
        e)
  in
  (items, overflow)

(* Write bucket page [page] holding [items], chained to [overflow]. *)
let put_bucket t page items overflow =
  Pager.write t.pager page (fun b ->
      Enc.set_u16 b 0 (List.length items);
      Enc.set_u32 b 2 overflow;
      let off = List.fold_left (fun off (k, v) -> Enc.set_entry b off k v) 6 items in
      Bytes.fill b off (Bytes.length b - off) '\000')

let bucket_bytes items =
  List.fold_left (fun acc (k, v) -> acc + Enc.entry_size k v) 6 items

(* Record-grain protocol. A record is named by its bucket-chain head
   page (stable under overflow growth) and the key hash. Readers take
   only the shared record lock: page writes apply atomically, writers
   only rearrange entries they hold exclusively, so the locked key's
   bytes are trustworthy wherever they sit in the chain. Writers
   serialize on an exclusive meta lock held to commit — the hash file
   is not on the TPC-B path, so trading writer concurrency for a
   latch-free structure is the right simplicity. *)
let refresh t =
  if t.pager.Pager.record_grain then begin
    let meta = t.pager.Pager.get 0 in
    if Enc.get_u32 meta 0 = magic then begin
      t.npages <- Enc.get_u32 meta 8;
      t.n <- Enc.get_u32 meta 12
    end
  end

let rec_id key = hash key land 0xFFFFFF

let find t key =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      let head = bucket_page t key in
      if t.pager.Pager.record_grain then
        t.pager.Pager.lock_rec ~page:head ~recno:(rec_id key) ~write:false;
      let rec probe page =
        if page = 0 then None
        else
          let items, overflow = decode_bucket (t.pager.Pager.get page) in
          match List.assoc_opt key items with
          | Some v -> Some v
          | None -> probe overflow
      in
      probe head)

let lock_write t key =
  if t.pager.Pager.record_grain then begin
    t.pager.Pager.lock_meta ~write:true;
    refresh t;
    t.pager.Pager.lock_rec ~page:(bucket_page t key) ~recno:(rec_id key)
      ~write:true
  end

let k_overflow_pages = Stats.counter "hash.overflow_pages"

let insert t key value =
  Pager.with_op t.pager (fun () ->
  charge t Cpu.Record_op;
  let ps = t.pager.Pager.page_size in
  if Enc.entry_size key value > (ps - 6) / 2 then
    raise Entry_too_large;
  lock_write t key;
  (* Replace in whichever chain page holds the key; otherwise add to the
     first page with room, extending the chain if none has any. *)
  let rec replace page =
    if page = 0 then false
    else
      let items, overflow = decode_bucket (t.pager.Pager.get page) in
      if List.mem_assoc key items then begin
        let items = (key, value) :: List.remove_assoc key items in
        put_bucket t page items overflow;
        true
      end
      else replace overflow
  in
  if not (replace (bucket_page t key)) then begin
    let rec add page =
      let items, overflow = decode_bucket (t.pager.Pager.get page) in
      if bucket_bytes ((key, value) :: items) <= ps then
        put_bucket t page ((key, value) :: items) overflow
      else if overflow <> 0 then add overflow
      else begin
        let fresh = t.npages in
        t.npages <- fresh + 1;
        put_bucket t fresh [ (key, value) ] 0;
        put_bucket t page items fresh;
        Stats.bump t.stats k_overflow_pages
      end
    in
    add (bucket_page t key);
    t.n <- t.n + 1;
    write_meta t
  end)

let delete t key =
  Pager.with_op t.pager (fun () ->
  charge t Cpu.Record_op;
  lock_write t key;
  let rec probe page =
    if page = 0 then false
    else
      let items, overflow = decode_bucket (t.pager.Pager.get page) in
      if List.mem_assoc key items then begin
        put_bucket t page (List.remove_assoc key items) overflow;
        t.n <- t.n - 1;
        write_meta t;
        true
      end
      else probe overflow
  in
  probe (bucket_page t key))

let iter t f =
  Pager.with_op t.pager (fun () ->
  if t.pager.Pager.record_grain then begin
    t.pager.Pager.lock_file ~write:false;
    refresh t
  end;
  let rec chain page =
    if page = 0 then true
    else
      let items, overflow = decode_bucket (t.pager.Pager.get page) in
      if
        List.for_all
          (fun (k, v) ->
            charge t Cpu.Cursor_next;
            f k v)
          items
      then chain overflow
      else false
  in
  let rec buckets i = if i > t.buckets then () else if chain i then buckets (i + 1)
  in
  buckets 1)
