package ig

// IndexMin exposes the node count up to which a graph without a
// register index searches its member lists.
const IndexMin = indexMin
