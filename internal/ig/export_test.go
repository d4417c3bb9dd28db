package ig

// TableMin exposes the node count up to which a graph without a Table
// searches its member lists.
const TableMin = tableMin
