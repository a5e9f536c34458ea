// cpxcheck fixture — naked-new rule, TRIGGER cases.

namespace fix {

struct Node {
  Node* next = new Node;  // EXPECT naked-new (in-class initializer)
};

double* grab(int n) {
  return new double[n];  // EXPECT naked-new
}

void drop(double* p, Node* q) {
  delete[] p;  // EXPECT naked-new
  delete q;    // EXPECT naked-new
}

}  // namespace fix
