let max_search_vertices = 16

(* --- color refinement ----------------------------------------------- *)

let refine g =
  let n = Graph.n g in
  let color = Array.make n 0 in
  (* initial color: degree *)
  for v = 0 to n - 1 do
    color.(v) <- Graph.degree g v
  done;
  let dense c =
    (* remap colors to 0..k-1, ordered by their signature so the result is
       label-independent *)
    let sorted = Array.copy c in
    Array.sort compare sorted;
    let tbl = Hashtbl.create n in
    let next = ref 0 in
    Array.iter
      (fun x ->
        if not (Hashtbl.mem tbl x) then begin
          Hashtbl.add tbl x !next;
          incr next
        end)
      sorted;
    Array.map (Hashtbl.find tbl) c, !next
  in
  let color, k0 = dense color in
  let color = ref color and k = ref k0 in
  let stable = ref false in
  while not !stable do
    let signature v =
      let neigh = Graph.fold_neighbors (fun acc w -> !color.(w) :: acc) [] g v in
      (!color.(v), List.sort compare neigh)
    in
    let sigs = Array.init n signature in
    (* hash-cons signatures into new dense colors, ordered by signature *)
    let distinct = Hashtbl.create n in
    Array.iter (fun s -> if not (Hashtbl.mem distinct s) then Hashtbl.add distinct s ()) sigs;
    let keys = Hashtbl.fold (fun s () acc -> s :: acc) distinct [] in
    let keys = List.sort compare keys in
    let rank = Hashtbl.create n in
    List.iteri (fun i s -> Hashtbl.add rank s i) keys;
    let next = Array.map (Hashtbl.find rank) sigs in
    let k' = List.length keys in
    if k' = !k then stable := true
    else begin
      color := next;
      k := k'
    end
  done;
  !color

let check_cap g =
  if Graph.n g > max_search_vertices then
    invalid_arg "Canon: graph exceeds max_search_vertices"

(* Adjacency as one bitmask per vertex: bit [w] of [rows.(v)] is the
   edge v–w. Within the search cap a row fits in an int. *)
let rows_of g =
  Array.init (Graph.n g) (fun v ->
      Graph.fold_neighbors (fun acc w -> acc lor (1 lsl w)) 0 g v)

(* --- the canonical search ---------------------------------------------- *)

type cert = {
  form : string;
  perm : int array;
  aut_count : int;
  position_vertices : int array;
}

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Complete graphs are the worst case for the search below (a single
   color class, every branch ties, n! optimal leaves), and the orderly
   census hits K_n at every level — so they get a closed form. *)
let complete_cert n =
  let total_bits = n * (n - 1) / 2 in
  {
    form = Printf.sprintf "%d:%s" n (String.make total_bits '1');
    perm = Array.init n Fun.id;
    aut_count = factorial n;
    position_vertices = Array.make n ((1 lsl n) - 1);
  }

(* [cols.(v)] holds column v as a v-bit int, most significant bit first:
   bit j of the column is the pair (j, v). *)
let form_of_columns n cols =
  let bits = Bytes.create (n * (n - 1) / 2) in
  for v = 1 to n - 1 do
    let off = v * (v - 1) / 2 in
    for j = 0 to v - 1 do
      Bytes.set bits (off + j) (if (cols.(v) lsr (v - 1 - j)) land 1 = 1 then '1' else '0')
    done
  done;
  Printf.sprintf "%d:%s" n (Bytes.to_string bits)

(* The canonical form is the lexicographically minimal adjacency
   bitstring over all color-class-respecting vertex orders. Bits are
   emitted in column-major order (x_{0,1}; x_{0,2}, x_{1,2}; x_{0,3},
   ...) so that placing the vertex at position [v] fixes exactly column
   [v] — which lets the backtracking search prune any branch whose
   partial string already exceeds the best one found. A column is kept
   as an int with x_{0,v} as its top bit, so comparing columns as ints
   compares them lexicographically.

   Besides the string, the search yields the three facts the orderly
   census needs and that only the search can provide: one optimal
   labeling, the number of optimal leaves, and for each canonical
   position the set of vertices some optimal labeling places there.
   Two labelings produce the same minimal string iff they differ by an
   automorphism, so the optimal-leaf count IS |Aut(g)| and the vertex
   set at position [p] IS the automorphism orbit of the vertex any
   optimal labeling puts at [p]. *)
let cert g =
  check_cap g;
  let n = Graph.n g in
  if n = 0 then
    { form = ""; perm = [||]; aut_count = 1; position_vertices = [||] }
  else if Graph.m g = n * (n - 1) / 2 then complete_cert n
  else begin
    let rows = rows_of g in
    let color = refine g in
    (* position i must receive a vertex of the i-th smallest color *)
    let target =
      let sorted = Array.copy color in
      Array.sort compare sorted;
      sorted
    in
    let cols = Array.make n 0 in
    let best = Array.make n 0 in
    let have_best = ref false in
    let perm = Array.make n (-1) in
    let used = Array.make n false in
    let best_perm = Array.make n (-1) in
    let leaves = ref 0 in
    let seen = Array.make n 0 in
    let record_leaf () =
      incr leaves;
      for p = 0 to n - 1 do
        seen.(p) <- seen.(p) lor (1 lsl perm.(p))
      done
    in
    (* [go v lt] explores positions v.. with [lt] = "the prefix is
       strictly below the incumbent's". Returns true when the subtree
       replaced the incumbent — in that case the caller's prefix equals
       the new incumbent's prefix, so its own [lt] state must reset to
       "equal". *)
    let rec go v lt =
      if v = n then begin
        if lt || not !have_best then begin
          Array.blit cols 0 best 0 n;
          have_best := true;
          Array.blit perm 0 best_perm 0 n;
          leaves := 0;
          Array.fill seen 0 n 0;
          record_leaf ();
          true
        end
        else begin
          (* equal prefix all the way down: the full string ties the
             incumbent, i.e. this labeling is optimal too *)
          record_leaf ();
          false
        end
      end
      else begin
        let updated = ref false in
        let lt_state = ref lt in
        for candidate = 0 to n - 1 do
          if (not used.(candidate)) && color.(candidate) = target.(v) then begin
            let row = rows.(candidate) in
            let col = ref 0 in
            for j = 0 to v - 1 do
              col := (!col lsl 1) lor ((row lsr perm.(j)) land 1)
            done;
            let verdict =
              if !lt_state || not !have_best then -1 else Int.compare !col best.(v)
            in
            if verdict <= 0 then begin
              used.(candidate) <- true;
              perm.(v) <- candidate;
              cols.(v) <- !col;
              if go (v + 1) (!lt_state || verdict < 0) then begin
                (* incumbent replaced along this path: our prefix now ties *)
                lt_state := false;
                updated := true
              end;
              used.(candidate) <- false;
              perm.(v) <- -1
            end
          end
        done;
        !updated
      end
    in
    ignore (go 0 false);
    {
      form = form_of_columns n best;
      perm = best_perm;
      aut_count = !leaves;
      position_vertices = seen;
    }
  end

let canonical_form g = (cert g).form

(* Position p of the canonical copy is vertex [perm.(p)] of [g]. The
   edges are added in column-major order. *)
let canonical_copy g c =
  let n = Graph.n g in
  let rows = rows_of g in
  let h = Graph.create n in
  for q = 1 to n - 1 do
    for p = 0 to q - 1 do
      if (rows.(c.perm.(p)) lsr c.perm.(q)) land 1 = 1 then Graph.add_edge h p q
    done
  done;
  h

let isomorphic a b =
  Graph.n a = Graph.n b
  && Graph.m a = Graph.m b
  && Graph.degree_sequence a = Graph.degree_sequence b
  &&
  (* refined colors are label-independent, so the full histograms must
     match exactly *)
  Stats.histogram (refine a) = Stats.histogram (refine b)
  && canonical_form a = canonical_form b

(* --- automorphisms ---------------------------------------------------- *)

exception Over_cap

(* Highly symmetric graphs (K_k and friends) have groups far too large
   to materialize, so the enumeration stops past [cap] and callers that
   only use the list to orbit-partition a small set can fall back to
   something else. *)
let automorphisms_capped ~cap g =
  check_cap g;
  let n = Graph.n g in
  let rows = rows_of g in
  let color = refine g in
  let image = Array.make n (-1) in
  let used = Array.make n false in
  let out = ref [] in
  let count = ref 0 in
  (* assign image.(v) for v = 0, 1, ...; candidate w must share v's refined
     color and match adjacency against all previously assigned vertices *)
  let consistent v w =
    let rv = rows.(v) and rw = rows.(w) in
    let rec ok u =
      u >= v || ((rv lsr u) land 1 = (rw lsr image.(u)) land 1 && ok (u + 1))
    in
    ok 0
  in
  let rec go v =
    if v = n then begin
      incr count;
      if !count > cap then raise Over_cap;
      out := Array.copy image :: !out
    end
    else
      for w = 0 to n - 1 do
        if (not used.(w)) && color.(w) = color.(v) && consistent v w then begin
          used.(w) <- true;
          image.(v) <- w;
          go (v + 1);
          used.(w) <- false;
          image.(v) <- -1
        end
      done
  in
  match go 0 with () -> Some !out | exception Over_cap -> None

let automorphism_count g = (cert g).aut_count

(* The orbit of vertex [perm.(p)] is [position_vertices.(p)]; orbits are
   numbered in the order of their least member. *)
let orbits g =
  let c = cert g in
  let n = Graph.n g in
  let orbit = Array.make n 0 in
  Array.iteri (fun p v -> orbit.(v) <- c.position_vertices.(p)) c.perm;
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      for w = v to n - 1 do
        if (orbit.(v) lsr w) land 1 = 1 then label.(w) <- !next
      done;
      incr next
    end
  done;
  label

let is_vertex_transitive g =
  let n = Graph.n g in
  n <= 1
  ||
  let o = orbits g in
  Array.for_all (fun x -> x = o.(0)) o
