type t = { len : int; words : int array }

module Metrics = Eba_util.Metrics

(* Word-granularity traffic counters: how much bitset material the
   epistemic kernels actually stream.  [words_init] counts the words of
   every set built from scratch ([create], [full], [init]), [words_map2]
   the words combined by binary operations.  Each touches a fixed number
   of words regardless of the job count, so both are deterministic. *)
let m_words_init = Metrics.counter "pset.words_init"
let m_words_map2 = Metrics.counter "pset.words_map2"

let bpw = 62

(* [bpw] low bits set, computed without shifting into the sign bit:
   [max_int] already has [Sys.int_size - 1] one bits. *)
let all_ones = max_int lsr (Sys.int_size - 1 - bpw)

let nwords len = (len + bpw - 1) / bpw

let fresh len word =
  Metrics.add m_words_init (nwords len);
  { len; words = Array.make (max 1 (nwords len)) word }

let create len = fresh len 0

let last_word_mask len =
  let rem = len mod bpw in
  if rem = 0 then all_ones else all_ones lsr (bpw - rem)

let full len =
  let s = fresh len all_ones in
  if len = 0 then s.words.(0) <- 0
  else s.words.(nwords len - 1) <- last_word_mask len;
  s

let copy s = { len = s.len; words = Array.copy s.words }
let length s = s.len

let check_index s i =
  if i < 0 || i >= s.len then invalid_arg "Pset: index out of bounds"

let mem s i =
  check_index s i;
  s.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add s i =
  check_index s i;
  s.words.(i / bpw) <- s.words.(i / bpw) lor (1 lsl (i mod bpw))

(* [lo, hi) clipped to one word at a time: at most [(hi - lo) / bpw + 2]
   word updates, however long the range. *)
let add_range s lo hi =
  if lo < 0 || hi > s.len || lo > hi then invalid_arg "Pset.add_range: bad range";
  let i = ref lo in
  while !i < hi do
    let w = !i / bpw and b = !i mod bpw in
    let k = min (bpw - b) (hi - !i) in
    s.words.(w) <- s.words.(w) lor ((all_ones lsr (bpw - k)) lsl b);
    i := !i + k
  done

let remove s i =
  check_index s i;
  s.words.(i / bpw) <- s.words.(i / bpw) land lnot (1 lsl (i mod bpw))

(* Parallel over whole words: each index computes one word of the vector
   from scratch, so domains never write to the same array slot and the
   result is identical for every job count.  [f] must be pure (every caller
   passes a read-only probe of an immutable model). *)
let init len f =
  let s = create len in
  Eba_util.Parallel.parallel_for (nwords len) (fun w ->
      let lo = w * bpw in
      let hi = min len (lo + bpw) in
      let word = ref 0 in
      for i = lo to hi - 1 do
        if f i then word := !word lor (1 lsl (i - lo))
      done;
      s.words.(w) <- !word);
  s

let check_same a b = if a.len <> b.len then invalid_arg "Pset: length mismatch"

let map2 op a b =
  check_same a b;
  Metrics.add m_words_map2 (Array.length a.words);
  let words = Array.init (Array.length a.words) (fun w -> op a.words.(w) b.words.(w)) in
  { len = a.len; words }

let union = map2 ( lor )
let inter = map2 ( land )
let diff = map2 (fun x y -> x land lnot y)

let complement a =
  let s = { len = a.len; words = Array.map (fun w -> lnot w land all_ones) a.words } in
  if a.len = 0 then s.words.(0) <- 0
  else begin
    let lw = nwords a.len - 1 in
    s.words.(lw) <- s.words.(lw) land last_word_mask a.len
  end;
  s

let inter_ip acc s =
  check_same acc s;
  Array.iteri (fun w x -> acc.words.(w) <- x land s.words.(w)) acc.words

let equal a b = a.len = b.len && a.words = b.words

let subset a b =
  check_same a b;
  let rec loop w =
    w >= Array.length a.words || (a.words.(w) land lnot b.words.(w) = 0 && loop (w + 1))
  in
  loop 0

let is_empty a = Array.for_all (fun w -> w = 0) a.words
let is_full a = equal a (full a.len)

let popcount x =
  let rec count acc x = if x = 0 then acc else count (acc + 1) (x land (x - 1)) in
  count 0 x

let cardinal a = Array.fold_left (fun acc w -> acc + popcount w) 0 a.words

let iter s f =
  for w = 0 to Array.length s.words - 1 do
    let word = s.words.(w) in
    if word <> 0 then
      for b = 0 to bpw - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bpw) + b)
      done
  done

let for_all s f =
  let ok = ref true in
  (try iter s (fun i -> if not (f i) then begin ok := false; raise Exit end)
   with Exit -> ());
  !ok

let choose s =
  let found = ref None in
  (try iter s (fun i -> found := Some i; raise Exit) with Exit -> ());
  !found

let pp fmt s = Format.fprintf fmt "<%d/%d points>" (cardinal s) s.len
